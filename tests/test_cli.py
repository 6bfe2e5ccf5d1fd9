import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from troptorus import cli
from troptorus.cli import main

ROOT = Path(__file__).resolve().parent.parent
N1 = str(ROOT / "problems" / "n1.json")
N2 = str(ROOT / "problems" / "n2.json")
BAD = str(ROOT / "problems" / "bad.json")


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def test_triangulate_line(tmp_path):
    code, text = run_cli(
        ["triangulate", "--problem", N1, "--level", "0"], tmp_path
    )
    assert code == 0
    body = json.loads(text)
    assert len(body["cells"]) == 2
    assert text.endswith("\n")


def test_triangulate_plane_level0(tmp_path):
    code, text = run_cli(
        ["triangulate", "--problem", N2, "--level", "0"], tmp_path
    )
    assert code == 0
    assert len(json.loads(text)["cells"]) == 8


def test_triangulate_refined(tmp_path):
    code, text = run_cli(
        ["triangulate", "--problem", N1, "--level", "2"], tmp_path
    )
    assert code == 0
    assert len(json.loads(text)["cells"]) == 2 * 2 ** 2


def test_parser_reused_across_calls(tmp_path, capsys):
    """One parser serves every main call in a process: an option given
    to one call does not stick to the next, and a usage error still
    exits 2 and leaves the parser working."""
    code, text = run_cli(
        ["triangulate", "--problem", N1, "--level", "2"], tmp_path
    )
    assert code == 0
    assert json.loads(text)["level"] == 2
    code, text = run_cli(["triangulate", "--problem", N1], tmp_path, "b.json")
    assert code == 0
    assert json.loads(text)["level"] == 0  # the problem file's level
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["tate", "--problem", N1]).level is None
    with pytest.raises(SystemExit) as exc:
        main(["triangulate", "--level", "1"])  # no --problem
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    code, text = run_cli(["triangulate", "--problem", N1], tmp_path, "c.json")
    assert code == 0
    assert len(json.loads(text)["cells"]) == 2


def test_bad_rational_is_parse_error():
    assert main(["triangulate", "--problem", BAD]) == 2


def test_missing_file_is_parse_error():
    assert main(["triangulate", "--problem", "/nonexistent/p.json"]) == 2


def test_bad_version_is_parse_error(tmp_path):
    p = tmp_path / "v9.json"
    p.write_text('{"version": 9, "lattice": [["1/1"]], "gram": [["1/1"]]}')
    assert main(["triangulate", "--problem", str(p)]) == 2


_SQUARE = '"lattice": [["1/1", "0/1"], ["0/1", "1/1"]]'
_UNIT = '"lattice": [["1/1"]], "gram": [["1/1"]]'


@pytest.mark.parametrize(
    "command,body,extra",
    [
        (
            "triangulate",
            '"lattice": [["1/1", "2/1"], ["2/1", "4/1"]],'
            ' "gram": [["1/1", "0/1"], ["0/1", "1/1"]]',
            [],
        ),
        ("triangulate", _SQUARE + ', "gram": [["1/1", "2/1"], ["2/1", "1/1"]]', []),
        ("triangulate", _SQUARE + ', "gram": [["1/1", "0/1"], ["0/1"]]', []),
        ("triangulate", _SQUARE + ', "gram": [["1/1", "0/1"]]', []),
        ("equidist", _UNIT + ', "equidist": {"grid_orders": 8}', []),
        ("tate", _UNIT, ["--iterations", "-1"]),
        ("triangulate", _UNIT, ["--level", "-1"]),
        ("collapse", _UNIT + ', "collapse": {"copies": "2"}', []),
        ("collapse", _UNIT + ', "collapse": {"copies": 1}', []),
        ("collapse", _UNIT + ', "collapse": {"deltas": "1/4"}', []),
        ("collapse", _UNIT + ', "collapse": {"samples": 0}', []),
        ("collapse", _UNIT, ["--samples", "-5"]),
        ("equidist", _UNIT + ', "equidist": {"grid_orders": []}', []),
        ("collapse", _UNIT + ', "collapse": {"deltas": []}', []),
        ("collapse", _UNIT + ', "collapse": {"deltas": ["-1/4"]}', []),
        ("collapse", _UNIT + ', "collapse": {"deltas": ["0/1"]}', []),
        ("equidist", _UNIT + ', "equidist": {"test_level": 7}', []),
        ("obstruction", _UNIT + ', "obstruction": {"witness_level": 7}', []),
        ("collapse", _UNIT + ', "collapse": {"deltas": ["1/4"]}', []),
        ("collapse", _UNIT + ', "collapse": {"deltas": ["1/4", "1/5"]}', []),
        ("equidist", _UNIT + ', "equidist": {"grid_orders": [4, 8]}', []),
        ("equidist", _UNIT + ', "equidist": {"grid_orders": [8, 12]}', []),
    ],
    ids=[
        "singular-lattice",
        "non-pd-gram",
        "ragged-gram",
        "non-square-gram",
        "grid-orders-not-list",
        "negative-iterations",
        "negative-level",
        "copies-not-integer",
        "copies-below-two",
        "deltas-not-list",
        "samples-zero",
        "samples-flag-negative",
        "empty-grid-orders",
        "empty-deltas",
        "nonpositive-delta",
        "zero-delta",
        "test-level-7",
        "witness-level-7",
        "one-delta",
        "no-halving-delta",
        "doubling-below-8",
        "no-doubling-grid-order",
    ],
)
def test_malformed_problem_is_parse_error(command, body, extra, tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"version": 1, ' + body + "}")
    code = main([command, "--problem", str(p), "--out", str(tmp_path / "o")] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("parse error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_certify_pass_and_fail(tmp_path):
    code, text = run_cli(
        ["certify", "--problem", N1, "--epsilon", "1/8"], tmp_path
    )
    assert code == 0
    body = json.loads(text)
    assert body["passed"] is True
    assert body["min_slack"] == "1/4"

    code, text = run_cli(
        ["certify", "--problem", N2, "--epsilon", "0/1"], tmp_path, "f.json"
    )
    assert code == 5
    body = json.loads(text)
    assert body["passed"] is False
    assert body["witness_slack"] == "0/1"


def test_certify_auto(tmp_path):
    code, text = run_cli(
        ["certify", "--problem", N2, "--epsilon", "auto"], tmp_path
    )
    assert code == 0
    body = json.loads(text)
    assert body["passed"] is True
    assert body["epsilon"] == "1/16"


def test_tate_reads_the_epsilon_flag(tmp_path, capsys):
    """--epsilon overrides the file in tate as in certify: eps = 0 loses
    convexity at once, and the eps auto finds gives the auto output."""
    args = ["tate", "--problem", N2, "--iterations", "1"]
    code, _ = run_cli(args + ["--epsilon", "0/1"], tmp_path, "zero.json")
    assert code == 3
    assert "convexity lost at iteration 0" in capsys.readouterr().err
    code, auto = run_cli(args, tmp_path, "auto.json")
    assert code == 0 and json.loads(auto)["epsilon"] == "1/16"
    assert run_cli(args + ["--epsilon", "1/16"], tmp_path) == (0, auto)


@pytest.mark.parametrize("command", ["certify", "tate"])
def test_exhausted_epsilon_search_is_search_failure(command, tmp_path, capsys):
    """A gram scaled by 2^-30 scales every face slack a but not the
    perturbation slopes b, so no eps = 2^-k, k < 20, certifies."""
    p = tmp_path / "tiny.json"
    tiny = [["2/1073741824", "1/1073741824"], ["1/1073741824", "2/1073741824"]]
    p.write_text(json.dumps({
        "version": 1, "lattice": [["1/1", "0/1"], ["0/1", "1/1"]], "gram": tiny
    }))
    assert main([command, "--problem", str(p), "--iterations", "0"]) == 4
    assert "no certified epsilon" in capsys.readouterr().err


def test_tate_table_csv(tmp_path):
    code, text = run_cli(
        [
            "tate",
            "--problem",
            N1,
            "--iterations",
            "3",
            "--format",
            "csv",
        ],
        tmp_path,
        "t.csv",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "i,sup_distance,ratio"
    assert lines[1] == "0,9/128,"
    assert lines[2] == "1,9/512,1/4"
    assert lines[4] == "3,9/8192,1/4"


def test_equidist_exit_and_report(tmp_path):
    p = tmp_path / "q.json"
    p.write_text(
        '{"version": 1, "lattice": [["1/1"]], "gram": [["1/1"]],'
        ' "equidist": {"test_level": 1, "grid_orders": [8, 16, 32]}}'
    )
    code, text = run_cli(["equidist", "--problem", str(p)], tmp_path)
    assert code == 0
    assert json.loads(text)["verdict"] == "pass"


def test_obstruction_exhaustion_is_search_failure(tmp_path):
    p = tmp_path / "q.json"
    p.write_text(
        '{"version": 1, "lattice": [["1/1"]], "gram": [["1/1"]],'
        ' "obstruction": {"denominator": 128, "witness_level": 1}}'
    )
    assert main(["obstruction", "--problem", str(p)]) == 4


def test_obstruction_report(tmp_path):
    code, text = run_cli(["obstruction", "--problem", N1], tmp_path)
    assert code == 0
    body = json.loads(text)
    assert body["verdict"] == "pass"
    assert body["bound"] == "1/4"


def test_collapse_exit(tmp_path):
    p = tmp_path / "q.json"
    p.write_text(
        '{"version": 1, "lattice": [["1/1"]], "gram": [["1/1"]],'
        ' "collapse": {"copies": 2, "deltas": ["1/4", "1/8"], "samples": 2000}}'
    )
    code, text = run_cli(["collapse", "--problem", str(p)], tmp_path)
    assert code == 0
    assert json.loads(text)["verdict"] == "pass"


@pytest.mark.parametrize(
    "args",
    [
        ["triangulate", "--problem", N1, "--level", "1"],
        ["certify", "--problem", N1, "--epsilon", "1/8"],
        ["tate", "--problem", N1, "--iterations", "2"],
        ["obstruction", "--problem", N1],
    ],
)
def test_byte_determinism(args, tmp_path):
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a == b and a


def test_collapse_byte_determinism(tmp_path):
    p = tmp_path / "q.json"
    p.write_text(
        '{"version": 1, "lattice": [["1/1"]], "gram": [["1/1"]],'
        ' "collapse": {"copies": 2, "deltas": ["1/4", "1/8"], "samples": 500}}'
    )
    args = ["collapse", "--problem", str(p), "--seed", "3"]
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a == b and a


def test_console_script_runs(tmp_path):
    # the checkout's package, installed or not
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "troptorus.cli",
            "triangulate",
            "--problem",
            N1,
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cells"]


_FUZZ_VALUES = st.sampled_from([
    -1, 0, 1, 2, 3, True, None, "1/2", "0/1", "-1/3", "1/0", "2/1", "x",
    [], ["1/1"], [["1/1"]], [[]], [1, 2], [["1/1", "0/1"], ["0/1", "0/1"]], {},
]).map(copy.deepcopy)  # later mutations must not reach the pool


def _paths(node, prefix=()):
    """Every key and list position of a JSON tree, as index paths."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_problems(draw):
    """A shipped problem file with one to three keys or entries replaced
    by a value from a small pool, or removed."""
    body = json.loads(Path(draw(st.sampled_from([N1, N2]))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(body))))
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_FUZZ_VALUES)
    return body


@given(
    body=mutated_problems(),
    args=st.sampled_from([
        ["triangulate"],
        ["certify", "--epsilon", "1/8"],
        ["certify"],
        ["tate", "--iterations", "1"],
        ["equidist"],
        ["collapse", "--samples", "8"],
        ["obstruction"],
    ]),
)
@settings(max_examples=60, deadline=None)
def test_mutated_problem_files_keep_the_exit_code_contract(body, args):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "p.json"
        p.write_text(json.dumps(body))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(
                [args[0], "--problem", str(p), "--out", str(Path(tmp) / "o")]
                + args[1:]
            )
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
