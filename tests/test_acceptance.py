"""End-to-end acceptance gate.

Each test mirrors one externally stated acceptance criterion; frozen
values are exact rationals checked with ==, and the long-running
criteria 2, 7 and 8 carry explicit wall-clock budgets.
"""
import json
import random
import time
from fractions import Fraction

import pytest

from troptorus import (
    Cocycle,
    ExperimentConfig,
    Simplex,
    auto_epsilon,
    build_model_function,
    check_strongly_convex,
    choose_twist_bound,
    collapse_experiment,
    discrepancy,
    dyadic_refine,
    empirical,
    fixed_denominator_obstruction,
    haar,
    hat_test_functions,
    is_refinement,
    run_equidistribution,
    sup_distance_to_quadratic,
    tate_iterate,
    torsion_grid,
    twist,
)
from troptorus.cli import main
from tests.conftest import base_complex
from tests.test_complex import flag_oracle_cells

F = Fraction


# --- 1. barycentric cell counts against an independent oracle ------------


@pytest.mark.parametrize("n,count", [(1, 2), (2, 8), (3, 48)])
def test_acceptance_1_cell_counts(n, count):
    _, _, _, c = base_complex(n)
    assert len(c.cells) == count
    assert {cell.vertices for cell in c.cells} == flag_oracle_cells(n)


# --- 2. refinement chain across all level pairs up to 4 ------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_acceptance_2_refinement_chain(n):
    start = time.monotonic()
    _, _, _, c0 = base_complex(n)
    chain = [c0]
    for _ in range(4):
        chain.append(dyadic_refine(chain[-1], 1))
    for j in range(5):
        for jp in range(j + 1, 5):
            assert is_refinement(chain[jp], chain[j])
    elapsed = time.monotonic() - start
    if n == 3:
        assert elapsed <= 30.0, f"n=3 refinement chain took {elapsed:.1f}s"


# --- 3. unperturbed interpolant fails with slack exactly zero ------------


@pytest.mark.parametrize("n", [2, 3])
def test_acceptance_3_flat_face_failure(n):
    _, b, _, c = base_complex(n)
    z = Cocycle(polarization=b, linear=tuple([F(0)] * n))
    cert = check_strongly_convex(build_model_function(c, z, F(0)))
    assert not cert.passed
    assert cert.witness_slack == 0
    assert cert.witness is not None


# --- 4. certified perturbation region ------------------------------------


def test_acceptance_4_certified_region_1d():
    _, b, _, c = base_complex(1)
    z = Cocycle(polarization=b, linear=(F(0),))

    def passes(eps):
        return check_strongly_convex(build_model_function(c, z, eps)).passed

    inside = [F(1, 1024), F(1, 8), F(127, 512), F(255, 1024)]
    outside = [F(1, 4), F(5, 16), F(1, 3), F(1, 2), F(1)]
    assert all(passes(e) for e in inside)
    assert not any(passes(e) for e in outside)


@pytest.mark.parametrize("n", [2, 3])
def test_acceptance_4_auto_search(n):
    _, b, _, c = base_complex(n)
    z = Cocycle(polarization=b, linear=tuple([F(0)] * n))
    eps, _, cert = auto_epsilon(c, z, max_halvings=20)
    assert cert.passed
    assert eps >= F(1, 2 ** 20)


# --- 5. exact quarter contraction under rescaling ------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_acceptance_5_contraction(n):
    _, b, _, c = base_complex(n)
    z = Cocycle(polarization=b, linear=tuple([F(0)] * n))
    f0 = build_model_function(c, z, F(1, 8))
    d0 = sup_distance_to_quadratic(f0)
    assert d0 > 0
    for i in range(7):
        assert sup_distance_to_quadratic(tate_iterate(f0, i)) * 4 ** i == d0


# --- 6. twist stability along the iteration ------------------------------


def test_acceptance_6_twist_stability(line_model):
    _, f0 = line_model
    hats = hat_test_functions(f0.complex)
    bounds = [(t, choose_twist_bound(f0, t)) for t in hats]
    bounds = [(t, b) for t, b in bounds if b is not None]
    assert bounds
    t, tau_max = max(bounds, key=lambda tb: tb[1])
    tau = tau_max / 2
    for i in range(5):
        fi = tate_iterate(f0, i)
        g = twist(fi, t, tau / 2 ** i)
        assert check_strongly_convex(g).passed
    adversarial_failed = any(
        not check_strongly_convex(twist(f0, t, 2 * b)).passed
        for t, b in bounds
    )
    assert adversarial_failed


# --- 7. grid discrepancy decay against Haar -------------------------------


def test_acceptance_7_equidistribution():
    start = time.monotonic()
    orders = (8, 16, 32, 64, 128, 256, 512)

    lat1, b1, _, _ = base_complex(1)
    rep1 = run_equidistribution(
        ExperimentConfig(lattice=lat1, polarization=b1, grid_orders=orders)
    )
    assert rep1.verdict == "pass"

    gram = ((F(2), F(1)), (F(1), F(2)))
    lat2, b2, _, _ = base_complex(2, gram)
    rep2 = run_equidistribution(
        ExperimentConfig(lattice=lat2, polarization=b2, grid_orders=orders)
    )
    assert rep2.verdict == "pass"
    for rep in (rep1, rep2):
        for m1, m2, r in rep.ratios:
            if r is None:
                # aligned grids: both discrepancies are exactly zero
                discs = {m: d for m, d, _ in rep.entries}
                assert discs[m1] == 0 and discs[m2] == 0
            else:
                assert r <= F(3, 4)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"equidistribution runs took {elapsed:.1f}s"


# --- 8. diagonal collapse and mass decay ----------------------------------


@pytest.mark.parametrize("copies", [2, 3])
def test_acceptance_8_collapse(copies):
    start = time.monotonic()
    lat, _, _, c = base_complex(1)
    cell = c.cells[0]
    face = Simplex(tuple(v * copies for v in cell.vertices))
    report = collapse_experiment(
        lat,
        face,
        copies,
        delta_sequence=(F(1, 4), F(1, 8), F(1, 16), F(1, 32)),
        samples=100_000,
        seed=0,
    )
    assert report.details["kernel_image_is_origin"]
    assert report.verdict == "pass"
    expected = F(1, 2) if copies == 2 else F(1, 4)
    for _, _, r in report.ratios:
        assert r is not None
        # the target measure is Haar: box mass scales with dimension
        assert abs(r - expected) <= expected * F(1, 5)
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"collapse with {copies} copies took {elapsed:.1f}s"


# --- 9. fixed-denominator obstruction -------------------------------------


def test_acceptance_9_obstruction():
    lat, b, _, _ = base_complex(1)
    bound, witness, integral = fixed_denominator_obstruction(lat, 1, 0, b)
    assert bound >= F(1, 12)
    assert integral > 0
    mu = haar(lat, witness.complex)
    grid_pts = torsion_grid(lat, 1).points
    rng = random.Random(1112)
    for _ in range(100):
        pts = [rng.choice(grid_pts) for _ in range(rng.randint(1, 20))]
        assert discrepancy(empirical(lat, pts), mu, (witness,)) >= bound


# --- 10. CLI byte determinism ----------------------------------------------


def test_acceptance_10_cli_determinism(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(
        json.dumps(
            {
                "version": 1,
                "lattice": [["1/1"]],
                "gram": [["1/1"]],
                "linear": ["0/1"],
                "epsilon": "1/8",
                "level": 0,
                "equidist": {"test_level": 1, "grid_orders": [8, 16, 32]},
                "collapse": {
                    "copies": 2,
                    "deltas": ["1/4", "1/8", "1/16"],
                    "samples": 2000,
                },
                "obstruction": {"denominator": 1, "witness_level": 0},
            }
        )
    )
    commands = [
        ["triangulate", "--level", "1"],
        ["certify", "--epsilon", "1/8"],
        ["tate", "--iterations", "3"],
        ["equidist", "--seed", "11"],
        ["collapse", "--seed", "11"],
        ["obstruction"],
    ]
    for extra in commands:
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{extra[0]}_{name}.json"
            code = main(
                [extra[0], "--problem", str(problem), "--out", str(out)]
                + extra[1:]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0]
