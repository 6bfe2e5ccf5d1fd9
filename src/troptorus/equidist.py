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
    identity_polarization,
    orthogonalize,
    reduce_mod,
    sup_distances,
    superlattice,
)
from .linalg import (
    TroptorusError,
    Vec,
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
    test_sup_abs,
    vertex_orbits,
)


class ExperimentError(TroptorusError):
    pass


MAX_LEVEL = 6  # the finest test and witness complex level
SAMPLES = 100_000  # the default Monte Carlo sample count of a collapse


@dataclass(frozen=True)
class ExperimentConfig:
    lattice: Lattice
    polarization: Polarization
    test_level: int = 1
    grid_orders: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)

    def __post_init__(self):
        if not self.grid_orders:
            raise ExperimentError("grid orders must be nonempty")
        if any(m < 1 for m in self.grid_orders):
            raise ExperimentError("grid orders must be >= 1")
        if not 0 <= self.test_level <= MAX_LEVEL:
            raise ExperimentError(f"test level must be in 0..{MAX_LEVEL}")
        if not checks_grid_decay(self.grid_orders):
            raise ExperimentError(
                "grid orders must hold some m >= 8 together with 2 m"
            )


def checks_grid_decay(orders) -> bool:
    """Whether the orders hold a doubling m, 2 m with m >= 8, the only
    pairs whose discrepancy decay the equidistribution verdict checks."""
    return any(m >= 8 and 2 * m in orders for m in orders)


def checks_collapse_decay(deltas) -> bool:
    """Whether some delta is followed by delta / 2, the only pairs whose
    mass decay the collapse verdict checks."""
    return any(2 * d2 == d1 for d1, d2 in zip(deltas, deltas[1:]))


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    verdict: str  # "pass" | "fail"
    entries: tuple = ()
    ratios: tuple = ()
    details: dict = field(default_factory=dict)


def torsion_grid(lat: Lattice, m: int) -> EmpiricalMeasure:
    """The m^n points k / m of (1/m) * lattice modulo the lattice."""
    if m < 1:
        raise ExperimentError("grid order must be >= 1")
    coords = tuple(product(range(m), repeat=lat.dim))
    e = EmpiricalMeasure(lattice=lat, scale=m, coords=coords)
    e.__dict__["_distinct"] = coords, (1,) * len(coords)
    return e


def _discrepancy_against(
    mu: PolytopalMeasure, tests: tuple[TestFunction, ...]
):
    """The map e -> discrepancy(e, mu, tests); the exact integrals and
    normalizers, which do not depend on e, are computed once.  Each
    integral is kept on mu, by the identity of the test, which is held
    there too so that its id is not reused; the test is never hashed,
    since that would build its Fraction pieces."""
    if not tests:
        raise ExperimentError("test family must be nonempty")
    kept = mu._integrals
    exact = []
    for t in tests:
        hit = kept.get(id(t))
        if hit is None:
            hit = kept[id(t)] = t, integrate(t, mu)
        exact.append((hit[1], 1 + test_sup_abs(t)))

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


def barycentric_complex(
    lat: Lattice, b: Polarization, level: int
) -> PeriodicComplex:
    """The level-j barycentric complex over the b-orthogonal superlattice."""
    orth = orthogonalize(lat, b)
    _, prime = superlattice(orth, lat)
    c = barycentric_triangulation(prime.generators, prime)
    return dyadic_refine(c, level)


def standard_test_complex(
    lat: Lattice, b: Polarization, level: int
) -> PeriodicComplex:
    """The level-j barycentric complex re-periodized over the lattice."""
    return unfold(barycentric_complex(lat, b, level), lat)


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

    In period coordinates times s = q e, the lattice is s Z^n and the
    grid generators e_j / e are the columns of the integer matrix q L^-1
    of the lattice frame; the classes are the closure of 0 under adding
    each generator, reduced by floor-mod s.
    """
    n = lat.dim
    q, inv = lat.frame.q, lat.frame.inv
    s = q * e
    gens = tuple(zip(*inv))
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
        b = identity_polarization(lat.dim)
    grid = _grid_points_mod(lat, e_denominator)
    s, ws = lat.integer_coords(grid)
    ws = list(ws)
    for level in range(witness_level, MAX_LEVEL + 1):
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
        # the grid point w / s lies in cells[i] + k, where the witness is
        # (P.(w / s - k) + C) / den: it vanishes iff P.(w - s k) + s C = 0
        find = c._index.find_cell_containing_simplex
        locs = []
        for w in ws:
            i, k = find((w,), s)
            locs.append((i, [x - s * y for x, y in zip(w, k)]))
        mu = haar(lat, c)
        for v in candidates:
            values = {o: Fraction(1 if o == v else 0) for o in orbits}
            witness = interpolate_test(c, values)
            rows = witness._form[1]
            if any(
                rows[i] is not None
                and sum(map(mul, rows[i][0], u)) + s * rows[i][1] != 0
                for i, u in locs
            ):
                continue
            integral = integrate(witness, mu)
            if integral <= 0:
                continue
            bound = integral / (1 + test_sup_abs(witness))
            return bound, witness, integral
    raise ExperimentError(
        f"no witness separating the 1/{e_denominator}-grid"
        f" up to level {MAX_LEVEL}"
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
    samples: int = SAMPLES,
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
    deltas = tuple(map(Fraction, delta_sequence))
    if not checks_collapse_decay(deltas):
        raise ExperimentError("deltas must hold some delta followed by delta / 2")

    plat = product_lattice(lat, copies)
    c = barycentric_triangulation(plat.generators, plat)
    mu = haar(plat, c)
    pushed = monte_carlo_pushforward(mu, amap, samples, seed)
    origin = zero_vec(n * (copies - 1))
    entries = []
    for d in deltas:
        entries.append((d, mass_near(pushed, origin, d)))
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
