"""Golden CLI output: the sha256 and exit code of each command's output.

The digests were taken from the CLI before the point locator was
unified; any change to a report's bytes shows here.  To regenerate after
an intended output change, run ``python tests/test_golden.py`` from the
repository root with ``src`` on ``PYTHONPATH`` and paste the printed
table over ``GOLDEN``; ``python tests/test_golden.py NAME...`` prints
only the named rows.
"""
import hashlib
import json
from pathlib import Path

import pytest

from troptorus.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

SKEW = {
    "version": 1,
    "lattice": [["1/1", "0/1"], ["1/2", "3/2"]],
    "gram": [["2/1", "1/1"], ["1/1", "2/1"]],
    "equidist": {"test_level": 0, "grid_orders": [8, 16, 32]},
}

# the identity n = 3 problem of the benchmark's certify workload
IDENTITY_N3 = {
    "version": 1,
    "lattice": [["1/1" if i == j else "0/1" for i in range(3)] for j in range(3)],
    "gram": [["1/1" if i == j else "0/1" for i in range(3)] for j in range(3)],
    "linear": ["0/1", "0/1", "0/1"],
    "level": 0,
}

# name -> (problem file or dict, top-level overrides, extra CLI arguments)
CASES = {
    "triangulate-n1-level3": ("n1", {}, ["triangulate", "--level", "3"]),
    "triangulate-n2-level2": ("n2", {}, ["triangulate", "--level", "2"]),
    "triangulate-n2-level4": ("n2", {}, ["triangulate", "--level", "4"]),
    "certify-n1-1/8": ("n1", {}, ["certify", "--epsilon", "1/8"]),
    "certify-n2-auto": ("n2", {}, ["certify", "--epsilon", "auto"]),
    "certify-n2-zero": ("n2", {}, ["certify", "--epsilon", "0/1"]),
    "certify-n3-auto": (IDENTITY_N3, {}, ["certify", "--epsilon", "auto"]),
    "tate-n1-csv": (
        "n1", {}, ["tate", "--iterations", "3", "--format", "csv"]
    ),
    "tate-n2": ("n2", {}, ["tate", "--iterations", "1"]),
    "equidist-n1": ("n1", {}, ["equidist"]),
    "equidist-n2-8-16": (
        "n2",
        {"equidist": {"test_level": 1, "grid_orders": [8, 16]}},
        ["equidist"],
    ),
    "equidist-skew": (SKEW, {}, ["equidist"]),
    "obstruction-n1": ("n1", {}, ["obstruction"]),
    "obstruction-n2": ("n2", {}, ["obstruction"]),
    "collapse-n1": (
        "n1", {}, ["collapse", "--samples", "2000", "--seed", "3"]
    ),
    "collapse-n1-copies3": (
        "n1",
        {"collapse": {"copies": 3}},
        ["collapse", "--samples", "2000", "--seed", "3"],
    ),
    "collapse-n2-copies3": (
        "n2",
        {"collapse": {"copies": 3}},
        ["collapse", "--samples", "1000", "--seed", "3"],
    ),
    "triangulate-skew-level2": (SKEW, {}, ["triangulate", "--level", "2"]),
}

# name -> (exit code, sha256 of the output bytes)
GOLDEN = {
    "triangulate-n1-level3": (
        0,
        "f9eae9c167f2aac0f30aedb8def85c4dae767966a87741ccb65dbbdc3a268c95",
    ),
    "triangulate-n2-level2": (
        0,
        "3e5b94c84eadaf3bf6c767b139c2f39188ffa3e9ae68965b481bd7a385899410",
    ),
    "triangulate-n2-level4": (
        0,
        "04041b26b934887d11d9ead9a5d705dd5f5600d6e34dc81f558377bde125ef75",
    ),
    "certify-n1-1/8": (
        0,
        "95d3bfaf84563d1584fb7d8cc6264d81e76c5d677b288ad332251d0aa042dfcb",
    ),
    "certify-n2-auto": (
        0,
        "89cbb295175ee9a3c3fb93197afd55f1ed1a6a78044c826a2cf9e890058c4c20",
    ),
    "certify-n2-zero": (
        5,
        "b4b1d1f9d15d7396b01f3b8364d83412a904c7b6b2333d2427850d971c6487b4",
    ),
    "certify-n3-auto": (
        0,
        "6fdf495e07d4d2f007e1570fa142320965417f879b6596eae05f29b525a531b4",
    ),
    "tate-n1-csv": (
        0,
        "007cfa1837d4b564dfb03d5aa2873afe27c515886b3857c4f8ee1728093d286b",
    ),
    "tate-n2": (
        0,
        "13eaff48cf019e240331ffc6e93fbe44a033758e5642337c1bcf8b34c90f3244",
    ),
    "equidist-n1": (
        0,
        "e0f889be7c09d35392c03b9ba4a4dcea7485bddbea9f357a5ee89d5b7a7b1323",
    ),
    "equidist-n2-8-16": (
        0,
        "41eae8d47d7da41ce26116e2c0579704ef94db947907603319fe27ed6b9151e4",
    ),
    "equidist-skew": (
        0,
        "b8b536b0b102516f6389574d894950575dfd321dbe980ed8093fd509390a487b",
    ),
    "obstruction-n1": (
        0,
        "2cdd2bf0afd911807b2a7a3a329709c2665294bfef39251333d8ae3cd86b71f7",
    ),
    "obstruction-n2": (
        0,
        "6352da266852cb8e64603939627e933200b69dc7eb00d17ad76f6b8b547d4ea8",
    ),
    "collapse-n1": (
        0,
        "688807f08f132916470fec37fc31966ba488da46158af68c6aeea1256da1f98e",
    ),
    "collapse-n1-copies3": (
        0,
        "c26d7623309c1bf25cd7c2e4df77bcc9a2463c12c5e3fb59c7869560695b893a",
    ),
    "collapse-n2-copies3": (
        5,
        "110e7bb20c8c349f72e8ee2b6339ee8fa28b4f583ae6da76f5a47662190e1245",
    ),
    "triangulate-skew-level2": (
        0,
        "c582ce16345b17fa8e3fc1de7812d131911c1ea8fa92a4b9f67c5e5fcd179a54",
    ),
}


def run_case(name, tmp_path):
    """(exit code, sha256 of the output) of one case."""
    problem, overrides, args = CASES[name]
    if isinstance(problem, str):
        problem = json.loads((PROBLEMS / f"{problem}.json").read_text())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**problem, **overrides}))
    out = tmp_path / "out"
    code = main(args[:1] + ["--problem", str(path), "--out", str(out)] + args[1:])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import sys
    import tempfile

    print("GOLDEN = {")
    for name in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, digest = run_case(name, Path(tmp))
        print(f'    "{name}": (\n        {code},\n        "{digest}",\n    ),')
    print("}")
