import ast
import copy
import inspect
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from formcones import cones as cones_module
from formcones import spaces as spaces_module
from formcones.chambers import gkz_fan
from formcones.cones import (
    Cone,
    _polar,
    _transpose,
    _validated,
    cone_from_halfspaces,
    cone_from_rays,
    dd_convert,
    dual,
    extremal_rays,
    interior_point,
    intersect,
)
from formcones.errors import (
    DegenerateRay,
    DimensionMismatch,
    InternalError,
    NotFullDimensional,
    NotPointed,
)
from formcones.linalg import dot, negate, primitive, rank
from formcones.spaces import collineations, movable_cone, quadrics
from formcones.verify import (
    _DUALITY_ORACLES,
    FUZZ_COUNT,
    check_cone_case,
    fuzz_cases,
    run_suite,
)
from test_spaces import _omit_one_spaces

coord = st.integers(min_value=-4, max_value=4)


@pytest.fixture
def fresh_movable():
    """An empty movable-cone slot, so the test's spies see Mov's passes run."""
    spaces_module._last_movable.clear()


def test_orthant_rays_and_facets():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert c.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert c.facets == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert c.is_pointed
    assert c.is_full_dimensional
    assert c.dim == 3
    assert c.lineality_dim == 0


def test_skew_cone_facets():
    c = cone_from_rays(2, [(1, 2), (2, 1)])
    assert c.facets == ((-1, 2), (2, -1))
    assert c.contains((1, 1))
    assert not c.contains((1, 0))


def test_halfplane_has_lineality():
    c = cone_from_rays(2, [(-1, 0), (0, 1), (1, 0)])
    assert c.lineality_dim == 1
    assert c.facets == ((0, 1),)
    assert not c.is_pointed


def test_full_space_cone():
    c = cone_from_halfspaces(2, [])
    assert c.facets == ()
    assert c.lineality_dim == 2
    assert c.contains((-7, 3))


def test_single_ray_normalized():
    c = cone_from_rays(3, [(2, 4, 6)])
    assert c.rays == ((1, 2, 3),)
    assert c.dim == 1


def test_redundant_generator_dropped():
    c = cone_from_rays(2, [(1, 0), (0, 1), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_zero_generator_rejected():
    with pytest.raises(DegenerateRay):
        cone_from_rays(2, [(0, 0)])


def test_wrong_length_rejected():
    with pytest.raises(DimensionMismatch):
        cone_from_rays(2, [(1, 0, 0)])
    c = cone_from_rays(2, [(1, 0)])
    with pytest.raises(DimensionMismatch):
        c.contains((1, 0, 0))


def test_bool_coordinates_rejected():
    with pytest.raises(TypeError):
        cone_from_rays(2, [(True, False)])


def test_omit_one_hulls_checks_its_vectors_as_cone_from_rays_does():
    for shared, omitted in (([(True, 0)], [(0, 1)]), ([(1, 0)], [(0, True)])):
        with pytest.raises(TypeError):
            cones_module.omit_one_hulls(2, shared, omitted)
    for shared, omitted in (([(1,)], [(0, 1)]), ([(1, 0)], [(0, 1, 0)])):
        with pytest.raises(DimensionMismatch):
            cones_module.omit_one_hulls(2, shared, omitted)


def test_repr_counts_what_the_cone_holds():
    # Generators no other test uses, so the shared cone is still unconverted.
    c = cone_from_rays(3, [(7, 1, 0), (0, 7, 1), (1, 0, 7), (14, 2, 0)])
    assert repr(c) == "Cone(ambient_rank=3, generators=3)"
    c.rays
    assert repr(c) == "Cone(ambient_rank=3, rays=3, facets=3)"
    h = cone_from_halfspaces(2, [(1, 0), (0, 1), (1, 1)])
    assert repr(h) == "Cone(ambient_rank=2, normals=3)"
    assert repr(dual(h)) == "Cone(ambient_rank=2, rays=2, facets=2)"


@pytest.mark.usefixtures("fresh_movable")
def test_polar_is_given_canonical_rows(monkeypatch):
    # Every cone holds its given vectors in canonical form, so ``_polar``
    # takes them as they are: nonzero, primitive and strictly increasing.
    seen = []
    polar = cones_module._polar

    def spy(rows, d, seed):
        seen.append(rows)
        return polar(rows, d, seed)

    monkeypatch.setattr(cones_module, "_polar", spy)
    cones_module._generated.cache_clear()
    run_suite("cones")
    movable_cone(quadrics(6))
    gkz_fan(collineations(3))
    intersect(cone_from_rays(2, [(1, 0), (1, 2)]),
              cone_from_rays(2, [(0, 1), (2, 1)])).rays
    assert len(seen) > 200
    for rows in seen:
        assert all(any(a) and primitive(a) == a for a in rows), rows
        assert all(a < b for a, b in zip(rows, rows[1:])), rows


def test_dual_involution_pointed():
    c = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    assert dual(dual(c)) == c


def test_dual_involution_with_lineality():
    c = cone_from_rays(2, [(-1, 0), (0, 1), (1, 0)])
    assert dual(dual(c)) == c
    d = dual(c)
    assert d.rays == ((0, 1),)
    assert d.dim == 1


def test_intersect():
    a = cone_from_rays(2, [(1, 0), (1, 2)])
    b = cone_from_rays(2, [(0, 1), (2, 1)])
    both = intersect(a, b)
    assert both.rays == ((1, 2), (2, 1))
    assert a.contains((1, 1)) and b.contains((1, 1)) and both.contains((1, 1))


def test_strictly_contains():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    assert c.strictly_contains((1, 1))
    assert not c.strictly_contains((1, 0))
    assert not c.strictly_contains((-1, 0))


def test_interior_point_is_strict():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    p = interior_point(c)
    assert c.strictly_contains(p)


def test_interior_point_needs_full_dimension():
    flat = cone_from_rays(2, [(1, 1)])
    with pytest.raises(NotFullDimensional):
        interior_point(flat)


def test_extremal_rays_certified():
    c = cone_from_rays(2, [(1, 0), (1, 1), (0, 1)])
    assert extremal_rays(c) == ((0, 1), (1, 0))


def test_extremal_rays_certifies_a_cone_once(monkeypatch):
    # A passed certificate is kept on the cone; a failed one raises on
    # every call.
    ranks = []
    monkeypatch.setattr(cones_module, "rank",
                        lambda rows: ranks.append(rows) or rank(rows))
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert extremal_rays(c) == extremal_rays(c) == c.rays
    assert len(ranks) == len(c.rays) == 3
    wrong = Cone(2, pairs=(((), ((0, 1), (1, 0), (1, 1))), ((), ((0, 1), (1, 0)))))
    for _ in range(2):
        with pytest.raises(InternalError):
            extremal_rays(wrong)


def test_extremal_rays_rejects_lineality():
    c = cone_from_rays(2, [(-1, 0), (0, 1), (1, 0)])
    with pytest.raises(NotPointed):
        extremal_rays(c)


def test_dd_convert_fills_both_representations():
    c = cone_from_rays(3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    same = dd_convert(c)
    assert same is c
    assert cone_from_halfspaces(3, c.facets) == c
    assert cone_from_rays(3, c.rays) == c


def test_cones_hashable_and_comparable():
    a = cone_from_rays(2, [(1, 0), (0, 1)])
    b = cone_from_rays(2, [(0, 1), (1, 0), (1, 1)])
    c = cone_from_rays(2, [(1, 0), (1, 1)])
    assert a == b
    assert a != c
    table = {a: "quadrant"}
    assert table[b] == "quadrant"


def test_equal_generators_share_one_cone():
    assert cone_from_rays(3, [(2, 0, 0), (0, 1, 0)]) \
        is cone_from_rays(3, [(0, 1, 0), (1, 0, 0)])
    # Cones cut out by halfspaces (Mov, the chambers) are not kept.
    assert cone_from_halfspaces(2, [(1, 0)]) \
        is not cone_from_halfspaces(2, [(1, 0)])


def test_every_cache_is_bounded():
    # A cache without a bound keeps every cone a long-running process has
    # built; each lru_cache in the package must give a finite maxsize.
    package = Path(cones_module.__file__).parent
    found = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if "lru_cache" not in (getattr(node, "id", None), getattr(node, "attr", None)):
                continue
            where = f"{path.name}:{node.lineno}"
            assert id(node) in calls, f"{where}: lru_cache without a maxsize"
            call = calls[id(node)]
            sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
            assert len(sizes) == 1 and isinstance(sizes[0], ast.Constant) \
                and type(sizes[0].value) is int and sizes[0].value > 0, \
                f"{where}: lru_cache needs a positive integer maxsize"
            found += 1
    assert found


def test_cone_is_a_plain_record():
    c = cone_from_rays(2, [(1, 0)])
    assert isinstance(c, Cone)
    assert c.ambient_rank == 2


@pytest.mark.parametrize("name, rank_, gens, rays, facets", _DUALITY_ORACLES,
                         ids=[case[0] for case in _DUALITY_ORACLES])
def test_oracles_read_back_from_either_side(name, rank_, gens, rays, facets):
    # From generators the pass yields the facets and the rays are read
    # back; from the facets it is the other way round.  The oracles cover
    # lineality (halfplane, full, line) and implied equalities (ray, line).
    for c in (cone_from_rays(rank_, gens), cone_from_halfspaces(rank_, facets)):
        assert c.rays == rays
        assert c.facets == facets


def test_read_back_drops_rows_that_cut_no_maximal_face():
    # (2, 1, 1) is interior and (2, 1, 0) lies inside the facet z = 0, so
    # their zero sets over the facets are not maximal.
    c = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1),
                           (2, 1, 1), (2, 1, 0)])
    assert c.rays == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))
    facets = ((0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1))
    # x >= 0 touches the cone only at the apex, 2x - y - z >= 0 only along
    # the ray (1, 1, 1).
    h = cone_from_halfspaces(3, facets + ((1, 0, 0), (2, -1, -1)))
    assert h.facets == facets
    assert h.rays == c.rays


def test_fuzz_corpus_all_pass():
    cases = fuzz_cases()
    assert len(cases) == FUZZ_COUNT
    failures = [check_cone_case(rank, gens) for rank, gens in cases]
    assert [f for f in failures if f] == []


def test_polar_masks_are_the_zero_sets_of_its_rays():
    # ``_polar`` decides adjacency and ``_read_back`` picks maximal faces
    # from these masks alone, so each must be exactly the rows tight on its
    # ray, recomputed here by inner products, and no two may be equal.  It
    # takes canonical rows, as every cone holds them, and indexes the masks
    # by their order, or, seeded, by the order it inserted them in.
    cases = fuzz_cases()
    cases += [(rank_, gens) for _, rank_, gens, _, _ in _DUALITY_ORACLES]
    for rank_, gens in cases:
        for normals in (gens, cone_from_rays(rank_, gens).facets):
            rows = _validated(normals, rank_, "normal")
            for seed in (frozenset(), frozenset(rows[::2])):
                (_, pointed), (masks, _, *order) = _polar(rows, rank_, seed)
                inserted = order[0] if order else range(len(rows))
                assert len(masks) == len(pointed)
                for r, mask in zip(pointed, masks):
                    tight = sum(1 << k for k, i in enumerate(inserted)
                                if dot(rows[i], r) == 0)
                    assert mask == tight, (rank_, normals, seed, r)
                assert len(set(masks)) == len(masks), (rank_, normals, seed)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.lists(
            st.tuples(*[coord] * r).filter(any), min_size=1, max_size=6
        ).map(lambda gens: (r, gens))
    )
)
def test_random_cone_double_description(case):
    assert check_cone_case(*case) == ""


# -- extreme-ray oracle ------------------------------------------------------
#
# Every extreme ray of a pointed cone {x : Ax >= 0} is fixed by d - 1 of its
# tight rows: it is plus or minus their cofactor vector (the signed
# (d-1)-minors), and that vector satisfies every row.  Conversely each such
# vector is tight on rows of rank d - 1, so it is extreme.  The oracle below
# enumerates row subsets with its own determinant and uses neither the
# double-description pass nor ``row_space_basis``.


def _det(m):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _cofactor_rays(d, vectors):
    """Extreme rays of ``{x : <a, x> >= 0}``, for vectors of rank ``d``."""
    rows = sorted({primitive(v) for v in vectors})
    found = set()
    for sub in combinations(rows, d - 1):
        c = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in sub])
                  for j in range(d))
        if not any(c):
            continue
        for v in (c, negate(c)):
            if all(dot(a, v) >= 0 for a in rows):
                found.add(primitive(v))
    return tuple(sorted(found))


def _oracle_corpus(seed=20261018, count=120):
    """Small integer vector sets of full rank, some with negated pairs."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = rng.randint(1, 6)
        # Half the sets keep a nonnegative first coordinate, so that their
        # halfspace cone holds (1, 0, ..., 0) and is not just the apex.
        low = rng.choice((-2, 0))
        vecs = {(rng.randint(low, 2),) + tuple(rng.randint(-2, 2)
                                               for _ in range(d - 1))
                for _ in range(rng.randint(d, 12))}
        vecs.discard((0,) * d)
        vecs = sorted(vecs)
        for v in list(vecs):
            if len(vecs) < 12 and rng.random() < 0.15:
                vecs.append(negate(v))
        vecs = vecs[:12]
        if rank(vecs) == d:
            cases.append((d, tuple(vecs)))
    return cases


def test_extreme_rays_match_the_cofactor_oracle():
    # Compared on both sides: the rays of {x : Ax >= 0} directly, and the
    # facets of the cone G generates, which are the rays of {a : Ga >= 0}.
    # Negated pairs make implicit equalities, so degenerate rays occur.
    for d, vecs in _oracle_corpus():
        expected = _cofactor_rays(d, vecs)
        assert cone_from_halfspaces(d, vecs).rays == expected, (d, vecs)
        assert cone_from_rays(d, vecs).facets == expected, (d, vecs)


def test_insert_leaves_its_state_unchanged():
    # omit_one_hulls starts sibling branches from one state, so a step must
    # build new parts rather than change the ones it was given.  The parts
    # are compared as values, packed lanes included.
    cases = _oracle_corpus() + [(7, CROSS_RAYS + CROSS_INSIDE)]
    for d, vecs in cases:
        state = cones_module._start(d)
        rows = sorted({primitive(v) for v in vecs})
        bound = cones_module._bound(rows)
        for idx, a in enumerate(rows):
            before = copy.deepcopy(state)
            after = cones_module._insert(state, idx, a, bound)
            assert state == before, (d, vecs, idx)
            state = after
    assert isinstance(state[3], cones_module._Lanes)


# -- the ray steps of the pass -------------------------------------------------
#
# A negative ray tight on exactly d - 1 current facets is simple and its
# edges are read off by the pivot; any other negative ray goes through the
# pair loop.  There a simple positive ray makes an edge with every negative
# one that shares d - 2 of its facets, with no face test.  _ray_steps
# records which step runs at which row, by tracing the lines of _polar's
# row step, _insert, that mark each step; the row is _insert's ``idx``
# argument.

_STEPS = {"pivot": "prefix &= h", "pair loop": "face &= holding[i]",
          "simple positive ray": "combine(nvec, an, p, ap)"}


def _trace_insert(build, markers, visit):
    """Run ``build``, calling ``visit(step, f_locals)`` at ``_insert``'s marker lines.

    ``markers`` maps each step to a text that only its line holds.
    """
    lines, first = inspect.getsourcelines(cones_module._insert)
    steps = {first + i: step for i, line in enumerate(lines)
             for step, text in markers.items() if text in line}
    assert sorted(steps.values()) == sorted(markers), "a marker line moved"

    def in_insert(frame, event, arg):
        if event == "line" and frame.f_lineno in steps:
            visit(steps[frame.f_lineno], frame.f_locals)
        return in_insert

    def calls(frame, event, arg):
        return in_insert if frame.f_code is cones_module._insert.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        build()
    finally:
        sys.settrace(previous)


def _ray_steps(build):
    """``(row index, step)`` for every ray step ``_insert`` runs in ``build``."""
    seen = set()

    def visit(step, local):
        # Past the face test the edge line runs too: it marks the shortcut
        # only for a simple ``p``.
        if step != "simple positive ray" or local["simple"]:
            seen.add((local["idx"], step))

    _trace_insert(build, _STEPS, visit)
    return sorted(seen)


CUBE_RAYS = ((-1, -1, -1, 1), (-1, -1, 1, 1), (-1, 1, -1, 1), (-1, 1, 1, 1),
             (1, -1, -1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, 1))
OCTAHEDRON_RAYS = ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1),
                   (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1))


def test_cone_over_a_cube():
    # Every ray lies on 3 of the 6 facets, in rank 4: all are simple.  The
    # first four rows cut out a simplicial cone, which (0, 1, 0, 1) cuts by
    # the pivot; that leaves (-1, 0, 0, 0) on four facets, and the last
    # row removes it through the pair loop, where every positive ray is
    # simple and needs no face test.  The facets of the cone over the
    # octahedron are the rows of the same pass.
    assert cone_from_halfspaces(4, OCTAHEDRON_RAYS).rays == CUBE_RAYS
    assert cone_from_rays(4, OCTAHEDRON_RAYS).facets == CUBE_RAYS
    assert _ray_steps(lambda: cone_from_halfspaces(4, OCTAHEDRON_RAYS).rays) \
        == [(4, "pivot"), (5, "simple positive ray")]


def test_cone_over_an_octahedron():
    # Every ray lies on 4 of the 8 facets, in rank 4: none is simple.  The
    # cones cut out on the way have simple rays, so the pivot runs at rows
    # 3, 5 and 7, and the pair loop at row 6, where it tests faces for the
    # positive rays that are not simple and none for those that are.
    assert cone_from_halfspaces(4, CUBE_RAYS).rays == OCTAHEDRON_RAYS
    assert cone_from_rays(4, CUBE_RAYS).facets == OCTAHEDRON_RAYS
    assert _ray_steps(lambda: cone_from_halfspaces(4, CUBE_RAYS).rays) == [
        (3, "pivot"), (5, "pivot"), (6, "pair loop"),
        (6, "simple positive ray"), (7, "pivot")]


def test_cone_with_an_implicit_equality():
    # The negated pair makes x3 = x4 an implicit equality: a cone over a
    # square in a hyperplane.  When the last row cuts off (-1, 0, 0, 0),
    # the edges from it lie on one facet and both equality rows, so they
    # reach the d - 2 common rows only with the equalities counted.  That
    # step runs the pair loop; the pivot runs at the negated row.
    rows = ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 1, -1),
            (0, 1, 0, 1), (1, 0, 0, 1))
    c = cone_from_halfspaces(4, rows)
    assert c.rays == ((-1, -1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, 1),
                      (1, 1, 1, 1))
    assert c.dim == 3
    assert _ray_steps(lambda: cone_from_halfspaces(4, rows).rays) \
        == [(3, "pivot"), (5, "pair loop")]


@pytest.mark.usefixtures("fresh_movable")
def test_every_shortcut_edge_spans_a_two_face():
    # A simple positive ray p lies on d - 1 independent kept rows, so the
    # d - 2 of them that a negative ray n shares cut out a 2-face holding p
    # and n alone.  Checked at every edge the shortcut makes, on both sides
    # of the duality and cofactor oracles and the fuzz cases, and in every
    # omit-one hull and movable pass of the spaces of Picard rank 2 to 10.
    checked = []

    def visit(step, local):
        if not local["simple"]:
            return
        face = local["everyone"]
        for i in cones_module._bit_indices(local["common"] & local["keep"]):
            face &= local["holding"][i]
        masks = local["masks"]
        pair = 1 << masks.index(local["pmask"]) | 1 << masks.index(local["nmask"])
        checked.append(face == pair)

    def build():
        cones_module._generated.cache_clear()
        cases = [(rank_, gens) for _, rank_, gens, _, _ in _DUALITY_ORACLES]
        for d, vecs in cases + _oracle_corpus() + fuzz_cases():
            for c in (cone_from_halfspaces(d, vecs), cone_from_rays(d, vecs)):
                dd_convert(c)
        for s in {spaces_module._shape(s): s for s in _omit_one_spaces()}.values():
            movable_cone(s).rays

    _trace_insert(build, {"edge": _STEPS["simple positive ray"]}, visit)
    assert len(checked) > 1000 and all(checked)


@pytest.mark.usefixtures("fresh_movable")
def test_movable_cone_of_quadrics_12_tests_no_face():
    # Every cut of Mov(quadrics(12))'s hulls and seeded pass that reaches the
    # pair loop leaves one negative ray, a non-simple apex, facing simple
    # positive rays: 2,044 pairs reach the pair loop, and none needs the
    # face test.
    counts = {"pair": 0, "face": 0}

    def visit(step, local):
        counts[step] += 1

    cones_module._generated.cache_clear()
    _trace_insert(lambda: movable_cone(quadrics(12)).rays,
                  {"pair": "common = pmask & nmask", "face": "face = everyone"},
                  visit)
    assert counts == {"pair": 2044, "face": 0}


@pytest.mark.usefixtures("fresh_movable")
def test_a_wrong_edge_stops_the_pass():
    # Taking every positive ray as simple skips the face test, so the pair
    # loop makes edges that are not.  In the second pass over
    # Mov(quadrics(6))'s rays two of the rays it makes share a zero set, and
    # the step raises at that cut instead of going on with a wrong cone.
    rays = movable_cone(quadrics(6)).rays

    def visit(step, local):
        local["simple"] = True

    cones_module._generated.cache_clear()
    with pytest.raises(InternalError, match="zero set"):
        _trace_insert(lambda: cone_from_rays(6, rays).facets,
                      {"pair": "common = pmask & nmask"}, visit)
    cones_module._generated.cache_clear()


# -- classification on packed lanes ---------------------------------------------
#
# Once a row leaves a set of at least _PACK_MIN rays whole, the step packs the
# rays' columns into lanes and classifies later rows on them.

# The cone over a 6-dimensional cross-polytope in rank 7: 12 rays e0 +- ei and
# 64 facets; CROSS_INSIDE lies inside it.  As normals, CROSS_RAYS cut out the
# cone over a 6-cube, with 64 rays, and CROSS_INSIDE is redundant for it.
CROSS_RAYS = tuple(tuple(int(j == 0) + s * int(j == i) for j in range(7))
                   for i in range(1, 7) for s in (1, -1))
CROSS_INSIDE = ((1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0),
                (3, 0, -1, 1, 0, 0, 0), (4, 1, 1, 1, -1, 0, 0))


def _signs(values, test):
    return sum(1 << j for j, v in enumerate(values) if test(v))


def _narrowest(lanes, bound, vecs):
    """True when ``lanes`` has the fewest bytes that hold ``bound * reach``.

    A lane of ``size`` bytes holds ``|v| < 2 ** (8 * size - 2)``; one byte
    fewer would not.
    """
    most = bound * max(abs(x) for r in vecs for x in r)
    return most < 2 ** (8 * lanes.size - 2) and (
        lanes.size == 1 or most >= 2 ** (8 * lanes.size - 10))


@pytest.mark.parametrize("reach_bits, words", [(2, 1), (62, 2), (200, 4)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lane_signs_match_dot(reach_bits, words, data):
    # Coordinates up to 2^2, up to 2^62, just below a signed 64-bit word,
    # and up to 2^200, past it: lanes of one or two bytes, of nine, and of
    # 26, each the narrowest and never wider than the ``words`` 64-bit
    # words that hold the same values.  Every row's entries lie in [-4, 4],
    # so the lanes are packed for the bound 4 * d.  Each row is also
    # checked against the rays turned to its side, alone or with one
    # negative ray in the first or the last lane.
    d = data.draw(st.integers(min_value=1, max_value=5))
    coords = st.one_of(st.just(0), coord,
                       st.integers(min_value=-2 ** reach_bits,
                                   max_value=2 ** reach_bits))
    vecs = data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=80))
    vecs.append((-2 ** reach_bits,) + (0,) * (d - 1))
    rows = data.draw(st.lists(st.tuples(*[coord] * d).filter(any), min_size=1,
                              max_size=6))
    lanes = cones_module._pack(list(zip(*vecs)), 4 * d)
    assert _narrowest(lanes, 4 * d, vecs) and lanes.size <= 8 * words
    for a in rows:
        values = [dot(a, r) for r in vecs]
        zero = _signs(values, lambda v: v == 0)
        assert cones_module._lane_signs(lanes, a) == (
            None if min(values) < 0 else zero)
        turned = [r if v >= 0 else negate(r) for r, v in zip(vecs, values)]
        i = next(i for i, c in enumerate(a) if c)
        below = tuple(-a[i] // abs(a[i]) if k == i else 0 for k in range(d))
        # No negative ray, then the only one in the first and in the last lane.
        for rays, want in ((turned, zero), ([below] + turned, None),
                           (turned + [below], None)):
            packed = cones_module._pack(list(zip(*rays)), 4 * d)
            assert _narrowest(packed, 4 * d, rays) and packed.size <= 8 * words
            assert cones_module._lane_signs(packed, a) == want


@pytest.mark.parametrize("k", [1, 2, 4, 8, 9])
def test_lanes_at_the_edge_of_their_width(k):
    # bound * reach one below 2^(8k - 2) fits lanes of k bytes, and exactly
    # 2^(8k - 2) takes k + 1.  Every row reaches the bound on some ray, so
    # a lane holds +-bound * reach; each row is checked on the rays turned
    # to its side, alone and with the ray of value -bound * reach in the
    # first or the last lane.
    for most, size, bound, rows in (
            (2 ** (8 * k - 2) - 1, k, 3,
             [(1, 2), (2, -1), (-1, 2), (-2, -1), (0, 3)]),
            (2 ** (8 * k - 2), k + 1, 4,
             [(1, 3), (3, -1), (-2, 2), (-1, -3), (4, 0)])):
        reach = most // bound
        xs = (-reach, 1 - reach, -1, 0, 1, reach - 1, reach)
        vecs = [(x, y) for x in xs for y in xs if x or y]
        assert bound * reach == most
        for a in rows:
            turned = [r if dot(a, r) >= 0 else negate(r) for r in vecs]
            values = [dot(a, r) for r in turned]
            assert max(values) == most
            below = negate(turned[values.index(most)])
            for rays in (turned, [below] + turned, turned + [below]):
                lanes = cones_module._pack(list(zip(*rays)), bound)
                assert lanes.size == size
                dots = [dot(a, r) for r in rays]
                holds = min(dots) >= 0
                assert cones_module._lane_holds(lanes, a) == holds
                assert cones_module._lane_signs(lanes, a) == (
                    _signs(dots, lambda v: v == 0) if holds else None)


def test_packed_and_column_states_step_alike(monkeypatch):
    # One state, its columns as tuples and packed into lanes: every row gives
    # the same rays and masks.  The lanes are sized once, for the widest row
    # of the pass, here one whose sum |a_i| passes 2^63, so every row after
    # the pack runs on them: a row that keeps every ray leaves the same
    # lanes, and one that cuts the set leaves column tuples.
    rows = sorted({primitive(v) for v in CROSS_RAYS + CROSS_INSIDE})
    big = 2 ** 62
    cases = [
        ((2, 1, 1, 0, 0, 0, 0), False),    # tight on 16 rays
        ((1, 0, 0, 0, 0, 0, -1), False),   # a facet again, on 32
        ((0, 1, 0, 0, 0, 0, 0), True),
        ((big + 1, big - 1, 0, 0, 0, 0, 0), False),
        ((big - 1, big + 1, 3, 0, 0, 0, 0), True),
    ]
    bound = cones_module._bound(rows + [a for a, _ in cases])
    plain = cones_module._inserted(cones_module._start(7), 0, rows[:-1], bound)
    packed = cones_module._insert(plain, len(rows) - 1, rows[-1], bound)
    assert isinstance(packed[3], cones_module._Lanes)
    assert packed[3].size == 9
    # Without the wide rows the same set packs into one byte per lane.
    narrow = cones_module._inserted(cones_module._start(7), 0, rows,
                                    cones_module._bound(rows))
    assert narrow[3].size == 1
    columns = packed[:3] + (list(zip(*packed[1])), packed[4])
    lane_signs = cones_module._lane_signs
    for a, cuts in cases:
        used = []
        monkeypatch.setattr(cones_module, "_lane_signs",
                            lambda lanes, a: used.append(a) or lane_signs(lanes, a))
        got = cones_module._insert(packed, len(rows), a, bound)
        monkeypatch.undo()
        want = cones_module._insert(columns, len(rows), a, bound)
        assert got[:3] + got[4:] == want[:3] + want[4:], a
        assert used == [a], a
        assert (got[1] != packed[1]) == cuts, a
        if cuts:
            assert got[3] == list(zip(*got[1])), a
        else:
            assert got[3] is packed[3], a


def _shear(vec, i, j, m):
    """``vec`` with ``m`` times entry ``j`` added to entry ``i``."""
    return tuple(x + m * vec[j] if k == i else x for k, x in enumerate(vec))


# A unimodular map U with entries near 2^70, as a product of shears: rays go
# to U r and facet normals to a U^-1.
_SHEARS = [(0, 1, 2 ** 70 + 3), (2, 0, 5), (6, 2, -(2 ** 69) - 7),
           (1, 4, 2 ** 70 - 11), (3, 6, 2)]


def _forward(r):
    for i, j, m in reversed(_SHEARS):
        r = _shear(r, i, j, m)
    return r


def _backward(a):  # a U^-1, the transpose of shearing a column back
    for i, j, m in reversed(_SHEARS):
        a = _shear(a, j, i, -m)
    return a


def _sheared_cube_normals():
    """The 6-cube's facets and every sum of two of them, moved by U."""
    facets = list(CROSS_RAYS)
    redundant = [tuple(map(sum, zip(f, g))) for f, g in combinations(facets, 2)]
    return [_backward(a) for a in facets + redundant]


def test_packed_pass_with_coordinates_past_64_bits(monkeypatch):
    # The cone over a 6-cube, with every sum of two of its facets as a
    # redundant row, moved by U.  The rays' coordinates pass 2^64, and the
    # redundant rows after the last facet run on lanes.
    cube = cone_from_halfspaces(7, CROSS_RAYS)
    normals = _sheared_cube_normals()
    calls = []
    lane_signs = cones_module._lane_signs
    monkeypatch.setattr(cones_module, "_lane_signs",
                        lambda lanes, a: calls.append(lanes.size)
                        or lane_signs(lanes, a))
    moved = cone_from_halfspaces(7, normals)
    assert moved.rays == tuple(sorted(_forward(r) for r in cube.rays))
    assert moved.facets == tuple(sorted(_backward(a) for a in cube.facets))
    assert max(map(abs, sum(moved.rays, ()))) > 2 ** 64
    assert calls and min(calls) > 8


def test_omit_one_hulls_on_packed_lanes(monkeypatch):
    # The shared vectors generate the cone over a cross-polytope, with 64
    # facets, and the omitted ones lie inside it: each hull's pass keeps
    # those facets on lanes, packed in a state that sibling hulls share.
    # Every pack is sized for the widest vector of all the hulls,
    # (4, 1, 1, 1, -1, 0, 0), since sibling hulls classify on the same lanes.
    packs, rows = [], []
    pack, lane_signs = cones_module._pack, cones_module._lane_signs
    monkeypatch.setattr(cones_module, "_pack",
                        lambda cols, bound: packs.append(bound) or pack(cols, bound))
    monkeypatch.setattr(cones_module, "_lane_signs",
                        lambda lanes, a: rows.append(a) or lane_signs(lanes, a))
    hulls = cones_module.omit_one_hulls(7, CROSS_RAYS, CROSS_INSIDE)
    assert packs and set(packs) == {8}
    assert len(rows) > len(packs)
    monkeypatch.undo()
    for c in CROSS_INSIDE:
        rest = CROSS_RAYS + tuple(v for v in CROSS_INSIDE if v != c)
        assert hulls[c] == cone_from_rays(7, rest).facets


def _lane_counts(monkeypatch):
    """Spy on the pass: rows inserted, packs made, and each lane check.

    Returns ``(inserted, packs, kept, zeros)``: the position of each row
    ``_insert`` is given, the ``(count, size)`` of each ``_pack``, for each
    ``_lane_signs`` or ``_lane_holds`` call whether it found no negative
    ray, and what each ``_lane_signs`` call returned.  Only ``_lane_signs``
    reads a zero set.
    """
    inserted, packs, kept, zeros = [], [], [], []
    insert, pack = cones_module._insert, cones_module._pack
    lane_signs, lane_holds = cones_module._lane_signs, cones_module._lane_holds

    def packing(cols, bound):
        lanes = pack(cols, bound)
        packs.append((lanes.count, lanes.size))
        return lanes

    def signs(lanes, a):
        zero = lane_signs(lanes, a)
        kept.append(zero is not None)
        zeros.append(zero)
        return zero

    def holds(lanes, a):
        kept.append(lane_holds(lanes, a))
        return kept[-1]

    monkeypatch.setattr(cones_module, "_insert",
                        lambda state, idx, a, bound: inserted.append(idx)
                        or insert(state, idx, a, bound))
    monkeypatch.setattr(cones_module, "_pack", packing)
    monkeypatch.setattr(cones_module, "_lane_signs", signs)
    monkeypatch.setattr(cones_module, "_lane_holds", holds)
    return inserted, packs, kept, zeros


def _quadrics_12_rows():
    """The 144 rows of Mov(quadrics(12)), which its final pass cuts it out by."""
    rows = movable_cone(quadrics(12))._given[1]
    assert len(rows) == 144
    return rows


@pytest.mark.usefixtures("fresh_movable")
def test_movable_pass_of_quadrics_12_on_lanes(monkeypatch):
    # The unseeded pass over Mov(quadrics(12))'s 144 rows inserts all of
    # them.  It packs its ray set once, 2,048 rays on lanes of 4 bytes, as
    # 29 bits hold bound 25 times reach 3,932,160 with a sign and a guard
    # bit, and classifies 53 later rows on the lanes; none of them cuts the
    # set.
    rows = _quadrics_12_rows()
    inserted, packs, kept, zeros = _lane_counts(monkeypatch)
    assert len(cone_from_halfspaces(12, rows).rays) == 2048
    assert inserted == list(range(144))
    assert packs == [(2048, 4)]
    assert len(kept) == 53 and all(kept)
    assert len(zeros) == 53


@pytest.mark.usefixtures("fresh_movable")
def test_seeded_movable_pass_of_quadrics_12_on_lanes(monkeypatch):
    # Seeded with the 22 closed-form facets, the pass inserts those alone,
    # packs the 2,048 rays they cut out once, and checks each of the 122
    # other rows with one sign test on lanes of 4 bytes; every one keeps
    # every ray, and no check reads a zero set, although 110 rows are tight
    # on some.
    mov = movable_cone(quadrics(12))
    assert len(mov._seed) == 22
    inserted, packs, kept, zeros = _lane_counts(monkeypatch)
    assert len(mov.rays) == 2048
    assert inserted == list(range(22))
    assert packs == [(2048, 4)]
    assert len(kept) == 122 and all(kept)
    assert zeros == []


# -- candidate rows ------------------------------------------------------------
#
# The pass carries the rows that may still cut out its cone.  A row that is
# not kept at a cut is not kept again unless a later row lowers the dimension,
# so each kept-row computation reads the candidates' zero sets alone.


def _checking_kept_rows(monkeypatch):
    """Check every ``_kept_rows`` call of ``_insert`` and ``_read_back``.

    Each call must keep what it would keep over all rows so far.  Returns
    the list that gets ``(rows read, rows so far)`` for each call.
    """
    kept_rows = cones_module._kept_rows
    insert, read_back = cones_module._insert, cones_module._read_back
    current, calls = [], []

    def inserting(state, idx, a, bound):
        current.append((state[2], idx))
        try:
            return insert(state, idx, a, bound)
        finally:
            current.pop()

    def reading(rows, masks, cand, *order):
        current.append((masks, len(order[0]) if order else len(rows)))
        try:
            return read_back(rows, masks, cand, *order)
        finally:
            current.pop()

    def checking(zero_sets, everyone):
        got = kept_rows(zero_sets, everyone)
        masks, n = current[-1]
        assert got == kept_rows(_transpose(masks, n, (1 << n) - 1), everyone)
        calls.append((len(zero_sets), n))
        return got

    monkeypatch.setattr(cones_module, "_insert", inserting)
    monkeypatch.setattr(cones_module, "_read_back", reading)
    monkeypatch.setattr(cones_module, "_kept_rows", checking)
    return calls


@pytest.mark.usefixtures("fresh_movable")
def test_candidate_rows_keep_what_all_rows_keep(monkeypatch):
    # Both sides of every oracle, fuzz and cross-polytope case, the sheared
    # cube past 64 bits, and the omit-one hulls and final pass of
    # Mov(quadrics(8)).
    calls = _checking_kept_rows(monkeypatch)
    cones_module._generated.cache_clear()
    cases = _oracle_corpus() + fuzz_cases()
    cases.append((7, CROSS_RAYS + CROSS_INSIDE))
    for d, vecs in cases:
        for c in (cone_from_halfspaces(d, vecs), cone_from_rays(d, vecs)):
            dd_convert(c)
    dd_convert(cone_from_halfspaces(7, _sheared_cube_normals()))
    assert len(movable_cone(quadrics(8)).rays) == 128
    assert any(read < rows for read, rows in calls)


# x2 = 0 is an implicit equality of these rows, sorted as every pass takes
# them.  Rows 0 to 2 are lineality steps and row 3 cuts a ray, which leaves
# rows 1 to 3 as the facets.  Row 4, the negation of row 3, cuts with no
# positive ray left, so the cone drops to its face x2 = 0.  On that face
# rows 0 and 1 cut out the same facet, and row 0, which row 4 did not keep,
# is the first row with it.  Rows 5 and 6 cut rays of the face.
DROP_ROWS = ((-1, -1, -1), (-1, -1, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1),
             (1, -1, 0), (1, 0, 0))


def test_a_row_that_lowers_the_dimension_makes_every_row_a_candidate(monkeypatch):
    expected = _cofactor_rays(3, DROP_ROWS)
    assert expected == ((0, -1, 0), (1, -1, 0))
    states = []
    insert = cones_module._insert
    monkeypatch.setattr(cones_module, "_insert",
                        lambda state, idx, a, bound:
                        states.append(insert(state, idx, a, bound)) or states[-1])
    assert cone_from_halfspaces(3, DROP_ROWS).rays == expected
    monkeypatch.undo()
    assert len(states) == len(DROP_ROWS)
    assert [len(s[1]) for s in states] == [1, 2, 3, 3, 2, 2, 2]
    assert states[3][4] == 0b1111
    assert states[4][4] == 0b11111
    assert states[5][4] == 0b111101
    calls = _checking_kept_rows(monkeypatch)
    cones_module._generated.cache_clear()
    h, g = cone_from_halfspaces(3, DROP_ROWS), cone_from_rays(3, DROP_ROWS)
    assert h.rays == g.facets == expected
    # The face's equality x2 = 0 as a pair, and its two facets, row 0 or 1
    # reduced modulo x2 and row 6.
    assert h.facets == ((-1, -1, 0), (0, 0, -1), (0, 0, 1), (1, 0, 0))
    assert len(calls) == 9  # rows 3 to 6 cut in each pass, and one read-back


def _kept_row_reads(monkeypatch):
    """The number of zero sets each ``_kept_rows`` call reads."""
    read = []
    kept_rows = cones_module._kept_rows
    monkeypatch.setattr(cones_module, "_kept_rows",
                        lambda zero_sets, everyone: read.append(len(zero_sets))
                        or kept_rows(zero_sets, everyone))
    return read


@pytest.mark.usefixtures("fresh_movable")
def test_movable_pass_of_quadrics_12_reads_candidate_rows(monkeypatch):
    # The unseeded pass over Mov(quadrics(12))'s rows computes its kept rows
    # at 78 cuts.  Over every row inserted so far they would read 3,884 zero
    # sets, up to 89 at a cut; over the candidate rows they read 1,055, at
    # most 22.
    rows = _quadrics_12_rows()
    read = _kept_row_reads(monkeypatch)
    assert len(cone_from_halfspaces(12, rows).rays) == 2048
    assert (len(read), sum(read), max(read)) == (78, 1055, 22)


@pytest.mark.usefixtures("fresh_movable")
def test_seeded_movable_pass_of_quadrics_12_reads_candidate_rows(monkeypatch):
    # Seeded, only the 10 of the 22 closed-form facets that cut read zero
    # sets, 165 of them, at most 21; the other 12 are lineality steps.  The
    # read-back reads the 22 inserted rows alone.
    mov = movable_cone(quadrics(12))
    read = _kept_row_reads(monkeypatch)
    assert len(mov.rays) == 2048
    assert (len(read), sum(read), max(read)) == (10, 165, 21)
    assert len(mov.facets) == 22
    assert read[10:] == [22]


# -- seeded passes -------------------------------------------------------------
#
# A seed only orders the pass and spares it rows: whatever the seed, the cone
# comes out as the unseeded pass over the same rows gives it.


def _seeded(d, rows, seed):
    """The cone of ``rows``, its pass seeded with ``seed``."""
    c = cone_from_halfspaces(d, rows)
    c._seed = frozenset(seed)
    return c


def test_any_seed_gives_the_oracle_cones():
    # Every subset of the rows as a seed, with and without a vector that is
    # not a row.  The oracles have lineality (halfplane, full, line) and
    # implied equalities (ray, line), cut out by their facets or by their
    # generators read as normals.
    stray = 0
    for _, rank_, gens, _, facets in _DUALITY_ORACLES:
        for normals in (facets, gens):
            rows = _validated(normals, rank_, "normal")
            plain = cone_from_halfspaces(rank_, rows)
            other = (rank_ + 1,) + (0,) * (rank_ - 1)
            assert other not in rows
            for size in range(len(rows) + 1):
                for seed in combinations(rows, size):
                    for extra in ((), (other,)):
                        c = _seeded(rank_, rows, seed + extra)
                        assert c.rays == plain.rays, (rows, seed + extra)
                        assert c.facets == plain.facets, (rows, seed + extra)
                        stray += bool(extra)
    assert stray > 100


@pytest.mark.parametrize("s", [quadrics(7), collineations(6, 8)],
                         ids=lambda s: s.describe())
def test_faulty_seeds_give_the_movable_cone(s):
    # The closed-form facets with one removed, with a vector that is not a
    # row, and with a row that is valid but not a facet.
    rho = s.picard_rank
    mov = movable_cone(s)
    rows, facets = mov._given[1], mov._seed
    assert facets and facets <= set(rows)
    plain = cone_from_halfspaces(rho, rows)
    redundant = next(a for a in rows if a not in facets)
    stray = (1,) * rho
    assert stray not in rows
    seeds = [facets - {f} for f in sorted(facets)]
    seeds += [facets | {stray}, facets | {redundant}]
    for seed in seeds:
        c = _seeded(rho, rows, seed)
        assert c.rays == plain.rays, seed
        assert c.facets == plain.facets, seed
    assert mov.rays == plain.rays and mov.facets == plain.facets


def test_an_empty_seed_inserts_every_row_in_order(monkeypatch):
    # With no row in the seed the pass is the plain one: rows 0..N-1, in
    # order, and an incidence with no order of its own.
    rows = _validated(CROSS_RAYS + CROSS_INSIDE, 7, "normal")
    plain = _polar(rows, 7)
    inserted, _, _, _ = _lane_counts(monkeypatch)
    for seed in (frozenset(), frozenset({(1,) * 7})):
        assert (1,) * 7 not in rows
        inserted.clear()
        got = _polar(rows, 7, seed)
        assert inserted == list(range(len(rows)))
        assert got == plain and len(got[1]) == 2
