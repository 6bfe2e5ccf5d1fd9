import math
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from troptorus import (
    ComplexError,
    Simplex,
    adjacent_pairs,
    check_common_faces,
    check_tiling,
    covolume,
    dyadic_refine,
    is_refinement,
    simplex_volume,
    standard_lattice,
    unfold,
)
from troptorus import complexes
from troptorus.complexes import (
    AdjacentPair,
    IncompatiblePeriodsError,
    PeriodicComplex,
    _from_coords,
    _inner_normal,
    _is_refinement_search,
    barycentric_triangulation,
    dyadic_refine_step,
    unfold_with_shifts,
)
from troptorus.lattice import Lattice
from troptorus.linalg import det, from_columns, mat_vec, vadd, vscale, vsub
from tests.conftest import (
    canonical_cell,
    complex_to_json,
    fraction_barycentric,
    fraction_refine_step,
    fraction_unfold_with_shifts,
    json_dumps,
    make_complex,
    pair_key,
    warn_slow_examples,
)
from tests.test_lattice import rational_lattices

F = Fraction
HALF = F(1, 2)


def flag_oracle_cells(n):
    """Independent enumeration: one simplex per (sign pattern, axis order).

    Each maximal cell of the subdivided unit cuboid is the convex hull of
    the flag 0, s_1 e_{p1}/2, s_1 e_{p1}/2 + s_2 e_{p2}/2, ...; counting
    canonical representatives modulo Z^n gives the expected cell count.
    """
    lat = standard_lattice(n)
    seen = set()
    for signs in product((1, -1), repeat=n):
        for perm in permutations(range(n)):
            verts = [tuple(F(0) for _ in range(n))]
            acc = tuple(F(0) for _ in range(n))
            for idx in perm:
                step = tuple(
                    HALF * signs[idx] if k == idx else F(0) for k in range(n)
                )
                acc = vadd(acc, step)
                verts.append(acc)
            canon, _ = canonical_cell(tuple(verts), lat)
            seen.add(canon.vertices)
    return seen


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 48)])
def test_cell_counts_match_flag_oracle(n, expected, request):
    setup = request.getfixturevalue(
        {1: "line_setup", 2: "plane_setup", 3: "space_setup"}[n]
    )
    _, _, prime, c = setup
    assert len(c.cells) == expected == (2 ** n) * math.factorial(n)
    assert {cell.vertices for cell in c.cells} == flag_oracle_cells(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cells_tile_the_torus(n, request):
    setup = request.getfixturevalue(
        {1: "line_setup", 2: "plane_setup", 3: "space_setup"}[n]
    )
    _, _, prime, c = setup
    check_tiling(c)
    total = sum(simplex_volume(cell) for cell in c.cells)
    assert total == covolume(prime)


@pytest.mark.parametrize("n", [1, 2])
def test_cells_meet_in_common_faces(n, request):
    setup = request.getfixturevalue({1: "line_setup", 2: "plane_setup"}[n])
    _, _, _, c = setup
    check_common_faces(c)


def test_overlapping_cells_detected():
    lat = standard_lattice(1)
    c = make_complex(
        lat,
        [
            Simplex(((F(0),), (F(3, 4),))),
            Simplex(((F(1, 2),), (F(1),))),
        ],
    )
    with pytest.raises(ComplexError):
        check_common_faces(c)


def test_overlap_far_along_a_skewed_basis_detected():
    """On the basis ((1,0),(7,1)) the second cell overlaps the first
    only after a shift by -2 times the first generator, outside the
    {-1,0,1}^2 window; the volumes still add up to the covolume."""
    lat = Lattice(((F(1), F(0)), (F(7), F(1))))
    c = make_complex(
        lat,
        [
            Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))),
            Simplex(((F(2), F(1, 4)), (F(3), F(1, 4)), (F(2), F(5, 4)))),
        ],
    )
    check_tiling(c)
    with pytest.raises(ComplexError):
        check_common_faces(c)


def test_canonical_cell_reduces_first_vertex():
    lat = standard_lattice(2)
    s = ((F(5, 2), F(-3)), (F(3), F(-5, 2)))
    canon, shift = canonical_cell(s, lat)
    assert lat.contains(shift)
    coords = lat.coords(canon.vertices[0])
    assert all(0 <= x < 1 for x in coords)
    assert canon.vertices == tuple(
        sorted(vsub(v, shift) for v in s)
    )


@pytest.mark.parametrize("n", [1, 2])
def test_refinement_multiplies_cell_count(n, request):
    setup = request.getfixturevalue({1: "line_setup", 2: "plane_setup"}[n])
    _, _, prime, c = setup
    fine = dyadic_refine(c, 2)
    assert len(fine.cells) == len(c.cells) * 4 ** n
    check_tiling(fine)
    assert is_refinement(fine, c)
    assert not is_refinement(c, fine)


def test_refine_step_parent_relation(plane_setup):
    _, _, prime, c = plane_setup
    fine, parents = dyadic_refine_step(c)
    assert len(parents) == len(fine.cells)
    for cell, (pi, lam) in zip(fine.cells, parents):
        parent = c.cells[pi]
        assert prime.contains(lam)
        doubled = tuple(vscale(F(2), v) for v in cell.vertices)
        translated = tuple(sorted(vadd(v, lam) for v in parent.vertices))
        assert tuple(sorted(doubled)) == translated


def test_colliding_cells_do_not_refine():
    """Two copies of one cell refine into colliding children, and the one
    sort of dyadic_refine_step finds them."""
    s = Simplex(((F(0),), (F(1, 2),)))
    c = PeriodicComplex(Lattice(((F(1),),)), (s, s))
    with pytest.raises(ComplexError, match="produced colliding cells"):
        dyadic_refine_step(c)


def _sorted_images(c):
    """Per cell, (images, coordinates) of its vertices in ambient order, from
    ``_coords`` and the Fraction basis: the image of period coordinates w
    at scale s is g L w, g the least integer making g L integral."""
    n, (scale, coords) = c.dim, c._coords
    g = c.period.frame.g
    images, ordered = [], []
    for w in coords:
        verts = sorted(
            (tuple(int(g * x) for x in mat_vec(c.period.matrix, v)), v)
            for v in (w[k : k + n] for k in range(0, len(w), n))
        )
        images.append(tuple(x for a, _ in verts for x in a))
        ordered.append(tuple(x for _, v in verts for x in v))
    return tuple(images), tuple(ordered)


@given(
    lat=rational_lattices(),
    level=st.integers(0, 2),
    rnd=st.randoms(use_true_random=False),
)
@settings(max_examples=15, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_kept_vertex_order_is_the_sorted_images(lat, level, rnd):
    """The ordered images barycentric_triangulation and dyadic_refine_step
    seed are those computed from ``_coords``, the coordinates being the
    complex's own.  A complex given with each cell's vertices shuffled
    refines to the same coordinates and parents, and, given the J1 level,
    the same level."""
    gens, n = lat.generators, lat.dim
    c = dyadic_refine(barycentric_triangulation(gens, lat), level)
    assert "_ordered" in vars(c)
    assert c._ordered == _sorted_images(c) and c._ordered[1] is c._coords[1]
    scale, coords = c._coords
    shuffled = tuple(
        tuple(
            x
            for k in rnd.sample(range(0, len(w), n), len(w) // n)
            for x in w[k : k + n]
        )
        for w in coords
    )
    given_j1 = _from_coords(lat, scale, shuffled, c.level, c._j1)
    given_cells = PeriodicComplex(lat, tuple(
        Simplex(tuple(
            lat.from_coords(tuple(F(x, scale) for x in w[k : k + n]))
            for k in range(0, len(w), n)
        ))
        for w in shuffled
    ))
    assert given_j1._ordered == given_cells._ordered == c._ordered
    fine, parents = dyadic_refine_step(c)
    assert fine._ordered == _sorted_images(fine)
    for hand, j1 in ((given_j1, fine._j1), (given_cells, None)):
        fine_h, parents_h = dyadic_refine_step(hand)
        assert fine_h._coords == fine._coords and parents_h == parents
        assert fine_h._j1 == j1 and fine_h._ordered == fine._ordered


def _images_from_fractions(c):
    """Per cell, the flat images of its vertices in ``_coords`` order, from
    ``_coords`` and the Fraction basis: the vertex with period coordinates
    w at scale s is L w / s, and its image at t = g s is g L w."""
    n, (scale, coords) = c.dim, c._coords
    g = c.period.frame.g
    images = []
    for w in coords:
        vs = (w[k : k + n] for k in range(0, len(w), n))
        a = [g * x for v in vs for x in mat_vec(c.period.matrix, v)]
        assert all(x.denominator == 1 for x in a)
        images.append(tuple(map(int, a)))
    return tuple(images)


@given(lat=rational_lattices(), level=st.integers(0, 2))
@settings(max_examples=15, deadline=None)
@warn_slow_examples(lambda lat, **_: lat.generators)
def test_kept_images_are_the_images_of_the_coordinates(lat, level):
    """``_images`` is g L w per vertex of each cell, in ``_coords`` order,
    for a complex of barycentric_triangulation, one refined from it, and
    the first unfolded over 2L and given to the constructor.  The builders keep
    their sort keys, ``_ordered[0]``, as it; reading it changes no hash."""
    c = barycentric_triangulation(lat.generators, lat)
    fine = dyadic_refine(c, level)
    unfolded = unfold(c, Lattice(tuple(vscale(F(2), g) for g in lat.generators)))
    hand = PeriodicComplex(lat, c.cells)
    before = hash(hand)
    for built in (c, fine):
        assert "_images" in vars(built) and built._images is built._ordered[0]
    for x in (c, fine, unfolded, hand):
        assert x._images == _images_from_fractions(x)
    assert hash(hand) == before and hand == c


def test_cli_runs_compute_no_builder_images(monkeypatch, tmp_path):
    """certify, tate and triangulate on problems/n2.json read the images
    the builders keep: no complex of barycentric_triangulation or
    dyadic_refine_step reaches _ambient_cells or _vertex_images, the
    only functions that compute vertex images."""
    from troptorus.cli import main

    problem = str(Path(__file__).resolve().parent.parent / "problems" / "n2.json")
    built, seen = [], []
    real = complexes._from_coords, complexes._ambient_cells, complexes._vertex_images

    def from_coords(*args, **kwargs):
        c = real[0](*args, **kwargs)
        if c._j1 is not None:
            built.append(c)
        return c

    monkeypatch.setattr(complexes, "_from_coords", from_coords)
    monkeypatch.setattr(
        complexes, "_ambient_cells",
        lambda c: seen.append(c._coords[1]) or real[1](c),
    )
    monkeypatch.setattr(
        complexes, "_vertex_images",
        lambda p, s, coords: seen.append(coords) or real[2](p, s, coords),
    )
    out = str(tmp_path / "out.json")
    for args in (
        ["certify", "--epsilon", "auto"],
        ["tate", "--iterations", "2"],
        ["triangulate", "--level", "4"],
    ):
        assert main(args + ["--problem", problem, "--out", out]) == 0
    assert len(built) >= 5
    # a call reads a builder's cells if its first cell is one of them
    kept = {id(w) for c in built for w in c._coords[1]}
    assert not [w for w in seen if id(w[0]) in kept]


def test_refining_a_builder_chain_computes_no_vertex_images(monkeypatch):
    """A chain from barycentric_triangulation refines from the kept vertex
    order alone: no step computes a parent's images.  A complex of the
    constructor computes its own once, and its children none."""
    calls = []
    real = complexes._ambient_cells
    monkeypatch.setattr(
        complexes, "_ambient_cells", lambda c: calls.append(c) or real(c)
    )
    skew_3d = ((F(1), F(0), F(1, 3)), (F(0), F(2), F(0)), (F(-1), F(1), F(1)))
    for gens, top in ((((F(1),),), 4), (SKEWED, 3), (skew_3d, 2)):
        lat = Lattice(gens)
        c = barycentric_triangulation(gens, lat)
        fine = dyadic_refine(c, top)
        assert fine.size == c.size * 2 ** (lat.dim * top) and not calls
    hand = PeriodicComplex(lat, c.cells)
    assert dyadic_refine(hand, 2)._coords == dyadic_refine(c, 2)._coords
    assert calls == [hand]


def test_is_refinement_requires_equal_periods(line_setup):
    _, _, prime, c = line_setup
    other = unfold(c, Lattice(((F(2),),)))
    with pytest.raises(IncompatiblePeriodsError):
        is_refinement(other, c)


@pytest.mark.parametrize("n,pairs", [(1, 2), (2, 12), (3, 96)])
def test_adjacency_handshake(n, pairs, request):
    setup = request.getfixturevalue(
        {1: "line_setup", 2: "plane_setup", 3: "space_setup"}[n]
    )
    _, _, _, c = setup
    found = adjacent_pairs(c)
    # every cell has n+1 facets and every facet orbit joins two cells
    assert len(found) == len(c.cells) * (n + 1) // 2 == pairs
    for p in found:
        face = p.face
        assert len(face) == n
        # the inner normal points from the face into cell i
        assert all(x.denominator == 1 for x in p.normal)


def test_unfold_doubles_cells(line_setup):
    _, _, prime, c = line_setup
    big = unfold(c, Lattice(((F(2),),)))
    assert len(big.cells) == 2 * len(c.cells)
    check_tiling(big)


def test_unfold_rejects_non_sublattice(line_setup):
    _, _, prime, c = line_setup
    with pytest.raises(IncompatiblePeriodsError):
        unfold(c, Lattice(((F(1, 3),),)))


def test_unfold_over_3z4_enumerates_classes_not_the_box():
    """The level-0 Z^4 complex over 3 Z^4: 81 classes, so 81 * 384 cells;
    each source cell appears once per class, and a sampled new cell is its
    source cell moved by the returned shift."""
    from tests.conftest import base_complex

    _, _, _, c = base_complex(4)
    sub = Lattice(tuple(
        tuple(F(3 if i == j else 0) for i in range(4)) for j in range(4)
    ))
    unfolded, mapping = unfold_with_shifts(c, sub)
    assert unfolded.period == sub and unfolded.size == len(mapping) == 81 * 384
    classes: dict[int, set] = {}
    for i, lam in mapping:
        assert all(x.denominator == 1 for x in lam)
        classes.setdefault(i, set()).add(tuple(int(x) % 3 for x in lam))
    assert sorted(classes) == list(range(384))
    assert all(len(ks) == 81 for ks in classes.values())
    scale, coords = unfolded._coords
    for j in range(0, len(coords), 97):
        w = coords[j]
        verts = tuple(
            sub.from_coords(tuple(F(x, scale) for x in w[k : k + 4]))
            for k in range(0, len(w), 4)
        )
        assert all(0 <= x < scale for x in w[:4])  # canonical in sub
        i, lam = mapping[j]
        assert verts == c.cells[i].translate(lam).vertices


def test_derived_state_is_outside_equality_hash_and_repr(plane_setup):
    """Reading the cached frame, index and pairs changes no ==, hash or
    repr; the coordinates a builder seeds are returned as they are."""
    lat, _, _, c = plane_setup
    fresh_lat = Lattice(lat.generators)
    before = hash(fresh_lat), repr(fresh_lat)
    assert "frame" not in vars(fresh_lat)
    fresh_lat.frame
    assert before == (hash(fresh_lat), repr(fresh_lat))
    fresh = barycentric_triangulation(lat.generators, fresh_lat)
    before += hash(fresh), repr(fresh)
    assert not {"_index", "_adjacency"} & set(vars(fresh))
    seeded = vars(fresh)["_coords"]
    fresh._index, adjacent_pairs(fresh)
    assert fresh._coords is seeded
    assert {"_index", "_adjacency"} <= set(vars(fresh))
    assert fresh_lat == lat and fresh == c
    assert before == (hash(fresh_lat), repr(fresh_lat), hash(fresh), repr(fresh))
    assert before == (hash(lat), repr(lat), hash(c), repr(c))
    coords = ((0, 0, 1, 0, 1, 1), (0, 0, 0, 1, 1, 1))
    built = _from_coords(lat, 1, coords, 0)
    assert built._coords[1] is coords and built._coords is built._coords
    hand = PeriodicComplex(lat, built.cells)
    assert "_coords" not in vars(hand)
    assert hand._coords == built._coords and hand == built


def test_simplex_volume_unit():
    s = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
    assert simplex_volume(s) == F(1, 2)


def test_refinement_chain_small():
    lat = standard_lattice(2)
    from tests.conftest import base_complex

    _, _, prime, c = base_complex(2)
    levels = [c]
    for _ in range(3):
        levels.append(dyadic_refine(levels[-1], 1))
    for j in range(4):
        for jp in range(j + 1, 4):
            assert is_refinement(levels[jp], levels[j])


def test_make_complex_canonicalizes_translates(line_setup):
    _, _, prime, c = line_setup
    shifted = [cell.translate((F(3),)) for cell in c.cells]
    again = make_complex(prime, shifted, expected=len(c.cells))
    assert again.cells == c.cells


def _kuhn_half_cells(lat):
    """Kuhn simplices {x_p1 >= ... >= x_pn} of each half-size subcube of
    the period cell: 2^n n! cells, as many as level-0 J1, but not J1 for
    n >= 2 (no reflections)."""
    n = lat.dim
    cells = []
    for corner in product((0, 1), repeat=n):
        for perm in permutations(range(n)):
            coords = [[F(x, 2) for x in corner]]
            for idx in perm:
                nxt = list(coords[-1])
                nxt[idx] += HALF
                coords.append(nxt)
            verts = tuple(lat.from_coords(tuple(u)) for u in coords)
            cells.append(Simplex(verts))
    return cells


@st.composite
def j1_chains(draw):
    """A J1 chain over a random rational period basis, levels 0..top.

    Level 3 is left out at n = 3: the search oracle takes minutes on the
    quarter-shifted and scrambled 24576-cell complexes.
    """
    n = draw(st.integers(1, 3))
    top = draw(st.integers(1, 3 if n < 3 else 2))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    gens = draw(
        st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
            lambda g: det(from_columns(g)) != 0
        )
    )
    lat = Lattice(gens)
    chain = [barycentric_triangulation(gens, lat)]
    for _ in range(top):
        chain.append(dyadic_refine(chain[-1], 1))
    return lat, chain, draw(st.randoms(use_true_random=False))


@given(data=j1_chains())
@settings(max_examples=12, deadline=None)
def test_j1_path_matches_search(data):
    """The recorded J1 levels answer as the containment search does on
    every ordered pair of chain levels, reversed pairs included.  Only
    the library's builders record a level: quarter-shifted, scrambled,
    relabelled and non-J1 complexes record none and take the search."""
    lat, chain, rnd = data
    n = lat.dim
    top = len(chain) - 1
    for j, c in enumerate(chain):
        assert c._j1 == j
    # the top level as non-canonical translates in shuffled order, with a
    # wrong level
    cells = [
        cell.translate(
            lat.from_coords(tuple(F(rnd.randint(-2, 2)) for _ in range(n)))
        )
        for cell in chain[top].cells
    ]
    rnd.shuffle(cells)
    scrambled = PeriodicComplex(period=lat, cells=tuple(cells), level=0)
    # the top level's cells through make_complex, with a wrong level
    relabelled = make_complex(lat, chain[top].cells, level=top + 1)
    # J1 cells, as many as the top level has, but one of them twice
    cells = chain[top].cells
    twice = cells[1].translate(lat.generators[0])
    gap = PeriodicComplex(period=lat, cells=cells[1:] + (twice,), level=top)
    # made by make_complex with level 0, but J1 only at n = 1
    kuhn = make_complex(lat, _kuhn_half_cells(lat), level=0)
    hand_built = [scrambled, relabelled, gap, kuhn]
    assert not is_refinement(chain[top], gap)
    for k, fine in enumerate(chain):
        assert is_refinement(fine, relabelled) == (k == top)
        assert is_refinement(relabelled, fine)
    for j, coarse in enumerate(chain):
        quarter = vscale(F(1, 4), lat.generators[rnd.randrange(n)])
        shifted = make_complex(
            lat, [cell.translate(quarter) for cell in coarse.cells], level=j
        )
        hand_built.append(shifted)
        if j + 2 <= top:
            # level j + 2 is invariant under the shift and refines level j
            assert is_refinement(chain[j + 2], shifted)
            assert _is_refinement_search(chain[j + 2], shifted)
        for k, fine in enumerate([*chain, scrambled]):
            want = _is_refinement_search(fine, coarse)
            assert is_refinement(fine, coarse) == want
            assert want == (min(k, top) >= j)
    assert all(c._j1 is None for c in hand_built)
    for c in hand_built:
        for other in chain:
            assert is_refinement(c, other) == _is_refinement_search(c, other)
            assert is_refinement(other, c) == _is_refinement_search(other, c)
    # no level carries over to the refinement of an unrecorded complex
    finer, _ = dyadic_refine_step(kuhn)
    assert finer._j1 is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recorded_levels_answer_without_an_index(n):
    """Two recorded levels decide is_refinement in both directions with
    no containment index built; an unrecorded copy of the coarse side
    takes the search and gets the same answers."""
    from tests.conftest import base_complex

    _, _, prime, coarse = base_complex(n)
    fine, _ = dyadic_refine_step(coarse)
    assert not is_refinement(coarse, fine)
    assert is_refinement(fine, coarse)
    assert "_index" not in vars(coarse) and "_index" not in vars(fine)
    # the coarse side of each call as an unrecorded copy
    fine_copy = make_complex(prime, fine.cells)
    coarse_copy = make_complex(prime, coarse.cells)
    assert fine_copy._j1 is None and coarse_copy._j1 is None
    assert not is_refinement(coarse, fine_copy)
    assert is_refinement(fine, coarse_copy)
    assert "_index" in vars(fine_copy) and "_index" in vars(coarse_copy)


def fraction_adjacent_pairs(c):
    """adjacent_pairs by hashing the canonical Fraction vertex tuples of
    every facet: the reference for the integer path."""
    buckets = {}
    for i, cell in enumerate(c.cells):
        for drop in range(len(cell.vertices)):
            face = tuple(
                v for k, v in enumerate(cell.vertices) if k != drop
            )
            canon_face, shift = canonical_cell(face, c.period)
            opp = vsub(cell.vertices[drop], shift)
            buckets.setdefault(canon_face.vertices, []).append(
                (i, vscale(F(-1), shift), opp)
            )
    pairs = []
    for key in sorted(buckets):
        entries = buckets[key]
        if len(entries) != 2:
            raise ComplexError(
                f"facet orbit shared by {len(entries)} cells; tiling broken"
            )
        (i, si, opp_i), (j, sj, _) = entries
        pairs.append(AdjacentPair(
            i=i, j=j, shift_i=si, shift_j=sj, face=key,
            normal=_inner_normal(key, opp_i), key=pair_key(i, si, j, sj),
        ))
    return tuple(pairs)


SKEWED = ((F(1), F(0)), (F(1, 2), F(3, 2)))


@given(data=j1_chains())
@settings(max_examples=15, deadline=None)
def test_integer_adjacency_matches_fraction_hashing(data):
    """Same pairs in the same order, with the same shifts, faces and
    normals, on J1 chains over random bases and on scrambled, unfolded
    and non-J1 complexes; the result is kept on the complex."""
    lat, chain, rnd = data
    n = lat.dim
    cells = [
        cell.translate(
            lat.from_coords(tuple(F(rnd.randint(-2, 2)) for _ in range(n)))
        )
        for cell in chain[-1].cells
    ]
    rnd.shuffle(cells)
    cells = [Simplex(tuple(rnd.sample(s.vertices, n + 1))) for s in cells]
    scrambled = PeriodicComplex(period=lat, cells=tuple(cells))
    sub = Lattice(tuple(vscale(F(2), g) for g in lat.generators))
    others = [
        scrambled,
        make_complex(lat, _kuhn_half_cells(lat)),
        unfold(chain[0], sub),
    ]
    for c in [*chain[:3], *others]:
        want = fraction_adjacent_pairs(c)
        assert adjacent_pairs(c) == want
        assert adjacent_pairs(c) is adjacent_pairs(c)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_integer_adjacency_on_a_skewed_basis(level):
    lat = Lattice(SKEWED)
    c = dyadic_refine(barycentric_triangulation(SKEWED, lat), level)
    assert adjacent_pairs(c) == fraction_adjacent_pairs(c)
    assert len(adjacent_pairs(c)) == 3 * len(c.cells) // 2


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_cell_adjacent_to_its_own_translate(order):
    """One cell [0, 1] over Z, its vertices in either order: both facets
    are in one orbit, and the pair's first cell copy is the one whose
    dropped vertex comes first in the cell's own order, as the Fraction
    hashing finds it."""
    c = PeriodicComplex(
        standard_lattice(1), (Simplex(tuple((F(x),) for x in order)),)
    )
    assert adjacent_pairs(c) == fraction_adjacent_pairs(c)


def test_adjacency_names_a_broken_tiling():
    lat = standard_lattice(1)
    c = PeriodicComplex(
        period=lat, cells=(Simplex(((F(0),), (F(1, 2),))),)
    )
    with pytest.raises(ComplexError, match="shared by 1 cells"):
        adjacent_pairs(c)
    with pytest.raises(ComplexError, match="shared by 1 cells"):
        fraction_adjacent_pairs(c)


_SKEW_BASIS = ((F(1), F(0)), (F(1, 2), F(3, 2)))


@st.composite
def builder_cases(draw):
    """A rational period basis at n = 1..4, the skew basis among them; a
    top level that keeps the Fraction oracles fast; a sublattice K Z^n
    of index 1..6 in the period basis, det K of either sign; and the
    level to unfold."""
    n = draw(st.integers(1, 4))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    bases = st.tuples(*[st.tuples(*[entries] * n)] * n).filter(
        lambda g: det(from_columns(g)) != 0
    )
    if n == 2:
        bases = st.one_of(st.just(_SKEW_BASIS), bases)
    gens = draw(bases)
    top = draw(st.integers(0, {1: 3, 2: 2, 3: 1, 4: 1}[n]))
    a = draw(st.sampled_from((1, 2, 3, -1, -2)))
    b = draw(st.integers(0, 1)) if n > 1 else 0
    kcols = [[int(i == j) for i in range(n)] for j in range(n)]
    kcols[0][0] = a
    if n > 1:
        kcols[-1][0] = b
        kcols[-1][-1] = draw(st.integers(1, 2))
    return gens, top, kcols, draw(st.integers(0, min(top, 4 - n)))


def _assert_same_complex(built, oracle):
    """Equal cells in equal order, level and J1 level, and kept integer
    coordinates equal to those computed from the Fraction cells."""
    assert built._coords == oracle._coords
    assert built.size == len(oracle.cells)
    assert built.cells == oracle.cells
    assert (built.level, built._j1) == (oracle.level, oracle._j1)


@given(case=builder_cases())
@example(case=(_SKEW_BASIS, 1, [[2, 0], [0, 2]], 1))  # lat scale below det(K) s
@settings(max_examples=25, deadline=None)
@warn_slow_examples(lambda case: case[0])
def test_integer_builders_match_the_fraction_oracles(case):
    """barycentric_triangulation, dyadic_refine_step and
    unfold_with_shifts, built in integer period coordinates, against the
    Fraction builders of tests/conftest.py."""
    gens, top, kcols, at = case
    lat = Lattice(gens)
    built = [barycentric_triangulation(gens, lat)]
    oracle = [fraction_barycentric(gens, lat)]
    for _ in range(top):
        fine, parents = dyadic_refine_step(built[-1])
        fine_o, parents_o = fraction_refine_step(oracle[-1])
        assert parents == parents_o
        built.append(fine)
        oracle.append(fine_o)
    for c, o in zip(built, oracle):
        _assert_same_complex(c, o)
    sub = Lattice(tuple(lat.from_coords(tuple(map(F, k))) for k in kcols))
    unfolded, mapping = unfold_with_shifts(built[at], sub)
    unfolded_o, mapping_o = fraction_unfold_with_shifts(oracle[at], sub)
    assert mapping == mapping_o
    _assert_same_complex(unfolded, unfolded_o)
    assert unfold(built[at], sub).cells == unfolded_o.cells


def test_refined_cells_are_built_only_on_access():
    """On the n2 model, the Tate iterates, their certificates and
    sup-distances, and triangulate's serialization run on the integer
    form: no refined complex builds its cells.  Read, they are the
    Fraction oracle's, and the text is the JSON oracle's."""
    import json
    from pathlib import Path

    from troptorus import Cocycle, Polarization, build_model_function
    from troptorus.equidist import barycentric_complex
    from troptorus.paf import (
        check_strongly_convex,
        sup_distance_to_quadratic,
        tate_iterate,
    )
    from troptorus.serialization import canonical_dumps

    raw = json.loads(
        (Path(__file__).resolve().parent.parent / "problems" / "n2.json")
        .read_text()
    )
    lat = Lattice(tuple(tuple(map(F, g)) for g in raw["lattice"]))
    b = Polarization(tuple(tuple(map(F, r)) for r in raw["gram"]))
    z = Cocycle(polarization=b, linear=tuple(map(F, raw["linear"])))
    f0 = build_model_function(barycentric_complex(lat, b, 0), z, F(1, 8))
    f2 = tate_iterate(f0, 2)
    check_strongly_convex(f2)
    sup_distance_to_quadratic(f2)
    tri = barycentric_complex(lat, b, 2)
    text = canonical_dumps(tri)
    refined = [tate_iterate(f0, 1).complex, f2.complex, tri]
    assert all("cells" not in vars(c) for c in refined)
    oracle = [f0.complex]
    for _ in range(2):
        oracle.append(fraction_refine_step(oracle[-1])[0])
    for c in refined:
        assert c.cells == oracle[c.level].cells
    assert text == json_dumps(complex_to_json(tri))
