"""Equidistribution, obstruction and collapse experiments at desk scale.

Discrepancies are exact rationals against a fixed piecewise-affine test
family; only the collapse pushforward is statistical (seeded Monte
Carlo), and even there the kernel facts are checked exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Optional

from .complexes import (
    PeriodicComplex,
    Simplex,
    barycentric_triangulation,
    dyadic_refine,
    unfold,
)
from .lattice import (
    Lattice,
    Polarization,
    orthogonalize,
    reduce_mod,
    sup_distances,
    superlattice,
)
from .linalg import (
    TroptorusError,
    Vec,
    dot,
    integer_matrix,
    mat_vec,
    vsub,
    zero_vec,
)
from .measures import (
    EmpiricalMeasure,
    IntegralAffineMap,
    PolytopalMeasure,
    empirical_averages,
    haar,
    integrate,
    mass_near,
    monte_carlo_pushforward,
)
from .paf import (
    TestFunction,
    hat_test_functions,
    interpolate_test,
    locate_cell,
    test_sup_abs,
    vertex_orbits,
)


class ExperimentError(TroptorusError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    lattice: Lattice
    polarization: Polarization
    test_level: int = 1
    grid_orders: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)

    def __post_init__(self):
        if any(m < 1 for m in self.grid_orders):
            raise ExperimentError("grid orders must be >= 1")
        if self.test_level > 6:
            raise ExperimentError("test level capped at 6")


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    verdict: str  # "pass" | "fail"
    entries: tuple = ()
    ratios: tuple = ()
    details: dict = field(default_factory=dict)


def torsion_grid(lat: Lattice, m: int) -> EmpiricalMeasure:
    """The m^n points of (1/m) * lattice modulo the lattice."""
    if m < 1:
        raise ExperimentError("grid order must be >= 1")
    n = lat.dim
    g, rows = integer_matrix(lat.matrix)
    # the point with coordinates k/m is m * g * point = sum_j k_j g b_j in
    # integers; coordinates in [0, 1) mean it is already reduced
    fracs: dict[int, Fraction] = {}
    points = []
    for k in product(range(m), repeat=n):
        point = []
        for row in rows:
            x = sum(map(mul, k, row))
            f = fracs.get(x)
            if f is None:
                f = fracs[x] = Fraction(x, m * g)
            point.append(f)
        points.append(tuple(point))
    return EmpiricalMeasure(lattice=lat, points=tuple(points))


def _discrepancy_against(
    mu: PolytopalMeasure, tests: tuple[TestFunction, ...]
):
    """The map e -> discrepancy(e, mu, tests); the exact integrals and
    normalizers, which do not depend on e, are computed once."""
    if not tests:
        raise ExperimentError("test family must be nonempty")
    exact = [(integrate(t, mu), 1 + test_sup_abs(t)) for t in tests]

    def disc(e: EmpiricalMeasure) -> Fraction:
        best = Fraction(0)
        for a, (i, w) in zip(empirical_averages(tests, e), exact):
            gap = abs(a - i) / w
            if gap > best:
                best = gap
        return best

    return disc


def discrepancy(
    e: EmpiricalMeasure,
    mu: PolytopalMeasure,
    tests: tuple[TestFunction, ...],
) -> Fraction:
    """max_t |emp(t) - int(t)| / (1 + sup|t|), exact."""
    return _discrepancy_against(mu, tests)(e)


def standard_test_complex(
    lat: Lattice, b: Polarization, level: int
) -> PeriodicComplex:
    """The level-j barycentric complex re-periodized over the lattice."""
    orth = orthogonalize(lat, b)
    _, prime = superlattice(orth, lat)
    c = barycentric_triangulation(prime.generators, prime)
    c = dyadic_refine(c, level)
    return unfold(c, lat)


def run_equidistribution(cfg: ExperimentConfig) -> ExperimentReport:
    """Grid-vs-Haar discrepancy decay over doubling grid orders.

    Verdict: for every consecutive doubling with m >= 8 either both
    discrepancies vanish exactly (aligned grids, reported) or the ratio
    is at most 3/4.
    """
    c = standard_test_complex(cfg.lattice, cfg.polarization, cfg.test_level)
    tests = hat_test_functions(c)
    disc = _discrepancy_against(haar(cfg.lattice, c), tests)
    discs: dict[int, Fraction] = {}
    entries = []
    for m in cfg.grid_orders:
        d = disc(torsion_grid(cfg.lattice, m))
        discs[m] = d
        entries.append((m, d, d == 0))
    ratios = []
    verdict = "pass"
    for m in cfg.grid_orders:
        if 2 * m not in discs:
            continue
        d1, d2 = discs[m], discs[2 * m]
        if d1 == 0:
            ratios.append((m, 2 * m, None))
            if d2 != 0 and m >= 8:
                verdict = "fail"
            continue
        r = d2 / d1
        ratios.append((m, 2 * m, r))
        if m >= 8 and r > Fraction(3, 4):
            verdict = "fail"
    return ExperimentReport(
        kind="equidistribution",
        verdict=verdict,
        entries=tuple(entries),
        ratios=tuple(ratios),
        details={"test_level": cfg.test_level, "tests": len(tests)},
    )


def _grid_points_mod(lat: Lattice, e: int) -> tuple[Vec, ...]:
    """The finite group (1/e) Z^n / (lat meet (1/e) Z^n): one point per
    class of the grid modulo the lattice, reduced as by reduce_mod.

    In period coordinates times s, the lattice is s Z^n and the grid
    generators e_i / e are integer vectors; the classes are the closure
    of 0 under adding each generator, reduced by floor-mod s.
    """
    n = lat.dim
    s, gens = integer_matrix(tuple(
        lat.coords(tuple(Fraction(int(i == j), e) for i in range(n)))
        for j in range(n)
    ))
    seen = {(0,) * n}
    todo = [(0,) * n]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple((x + y) % s for x, y in zip(p, g))
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return tuple(sorted(
        lat.from_coords(tuple(Fraction(x, s) for x in p)) for p in seen
    ))


def _torus_distance(lat: Lattice, p: Vec, q: Vec) -> Fraction:
    v = reduce_mod(vsub(p, q), lat)
    return min(sup_distances(lat, v, max(map(abs, v))))


def fixed_denominator_obstruction(
    lat: Lattice,
    e_denominator: int,
    witness_level: int,
    b: Optional[Polarization] = None,
) -> tuple[Fraction, TestFunction, Fraction]:
    """A periodic bump vanishing on the (1/e)-grid with positive mean.

    Returns (normalized lower bound, witness test, raw integral): every
    empirical measure supported on the grid has discrepancy at least the
    bound against Haar, whatever the point multiset.
    """
    if e_denominator < 1:
        raise ExperimentError("denominator must be >= 1")
    if b is None:
        from .lattice import identity_polarization

        b = identity_polarization(lat.dim)
    grid = _grid_points_mod(lat, e_denominator)
    for level in range(witness_level, 7):
        c = standard_test_complex(lat, b, level)
        orbits = vertex_orbits(c)
        ranked = sorted(
            (
                (min(_torus_distance(lat, v, g) for g in grid), v)
                for v in orbits
            ),
            key=lambda dv: (dv[0], tuple(-x for x in dv[1])),
            reverse=True,
        )
        # a vertex sitting on the grid can never carry a vanishing hat
        candidates = [v for d, v in ranked if d > 0]
        if not candidates:
            continue
        locs = []
        for g in grid:
            i, lam = locate_cell(c, g)
            locs.append((i, vsub(g, lam)))
        mu = haar(lat, c)
        for v in candidates:
            values = {o: Fraction(1 if o == v else 0) for o in orbits}
            witness = interpolate_test(c, values)
            if any(
                dot(witness.pieces[i][0], u) + witness.pieces[i][1] != 0
                for i, u in locs
            ):
                continue
            integral = integrate(witness, mu)
            if integral <= 0:
                continue
            bound = integral / (1 + test_sup_abs(witness))
            return bound, witness, integral
    raise ExperimentError(
        f"no witness separating the 1/{e_denominator}-grid up to level 6"
    )


def product_lattice(lat: Lattice, copies: int) -> Lattice:
    n = lat.dim
    gens = []
    for b in range(copies):
        for g in lat.generators:
            v = [Fraction(0)] * (n * copies)
            for i, x in enumerate(g):
                v[b * n + i] = x
            gens.append(tuple(v))
    return Lattice(tuple(gens))


def difference_map(lat: Lattice, copies: int) -> IntegralAffineMap:
    """(u_1, ..., u_N) -> (u_2 - u_1, ..., u_N - u_{N-1})."""
    n = lat.dim
    rows = []
    for blk in range(copies - 1):
        for i in range(n):
            r = [Fraction(0)] * (n * copies)
            r[blk * n + i] = Fraction(-1)
            r[(blk + 1) * n + i] = Fraction(1)
            rows.append(tuple(r))
    return IntegralAffineMap(
        matrix=tuple(rows),
        offset=zero_vec(n * (copies - 1)),
        source=product_lattice(lat, copies),
        target=product_lattice(lat, copies - 1),
    )


def collapse_experiment(
    lat: Lattice,
    d_face: Simplex,
    copies: int,
    delta_sequence: tuple[Fraction, ...],
    samples: int = 100_000,
    seed: int = 0,
) -> ExperimentReport:
    """Difference-map collapse of a diagonal face, with box-mass decay.

    The kernel fact (the diagonal face maps exactly to 0) is checked by
    exact linear algebra; the decay of mass_near(0, delta) under halving
    is Monte Carlo.  A mass that fails to at least halve signals an atom
    at 0, which Haar behaviour of the pushforward forbids.
    """
    if copies < 2:
        raise ExperimentError("need at least two factors")
    n = lat.dim
    if d_face.ambient_dim != n * copies:
        raise ExperimentError("face must live in the product space")
    for v in d_face.vertices:
        blocks = [v[b * n : (b + 1) * n] for b in range(copies)]
        if any(blk != blocks[0] for blk in blocks):
            raise ExperimentError("face vertices must be diagonal")
    amap = difference_map(lat, copies)
    images = [mat_vec(amap.matrix, v) for v in d_face.vertices]
    if any(any(x != 0 for x in img) for img in images):
        raise ExperimentError("diagonal face does not map to 0")

    plat = product_lattice(lat, copies)
    c = barycentric_triangulation(plat.generators, plat)
    mu = haar(plat, c)
    pushed = monte_carlo_pushforward(mu, amap, samples, seed)
    origin = zero_vec(n * (copies - 1))
    entries = []
    for d in delta_sequence:
        entries.append((Fraction(d), mass_near(pushed, origin, Fraction(d))))
    ratios = []
    verdict = "pass"
    for (d1, m1), (d2, m2) in zip(entries, entries[1:]):
        if 2 * d2 != d1:
            continue
        r = None if m1 == 0 else m2 / m1
        ratios.append((d1, d2, r))
        # an atom at 0 keeps the mass from shrinking with the box
        if r is None or r >= Fraction(5, 9):
            verdict = "fail"
    return ExperimentReport(
        kind="collapse",
        verdict=verdict,
        entries=tuple(entries),
        ratios=tuple(ratios),
        details={
            "kernel_image_is_origin": True,
            "copies": copies,
            "samples": samples,
            "seed": seed,
        },
    )
