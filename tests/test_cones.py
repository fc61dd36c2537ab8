import ast
import copy
import importlib
import random
from functools import reduce, wraps
from itertools import combinations
from operator import and_
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
from support import (
    CROSS_INSIDE,
    CROSS_RAYS,
    CUBE_RAYS,
    OCTAHEDRON_RAYS,
    STEPS,
    omit_one_spaces,
    ray_steps,
    trace_insert,
)

coord = st.integers(min_value=-4, max_value=4)


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


@pytest.mark.usefixtures("cold_caches")
def test_repr_counts_what_the_cone_holds():
    c = cone_from_rays(3, [(7, 1, 0), (0, 7, 1), (1, 0, 7), (14, 2, 0)])
    assert repr(c) == "Cone(ambient_rank=3, generators=3)"
    c.rays
    assert repr(c) == "Cone(ambient_rank=3, rays=3, facets=3)"
    h = cone_from_halfspaces(2, [(1, 0), (0, 1), (1, 1)])
    assert repr(h) == "Cone(ambient_rank=2, normals=3)"
    # The dual is the other side of h's record: it runs no pass.
    assert repr(dual(h)) == "Cone(ambient_rank=2, generators=3)"


@pytest.mark.usefixtures("cold_caches")
def test_polar_is_given_canonical_rows(monkeypatch):
    # Every cone holds its given vectors in canonical form, so ``_polar``
    # takes them as they are: nonzero, primitive and strictly increasing.
    seen = []
    polar = cones_module._polar

    def spy(rows, d, seed):
        seen.append(rows)
        return polar(rows, d, seed)

    monkeypatch.setattr(cones_module, "_polar", spy)
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
    wrong = cones_module._known(2, ((0, 1), (1, 0), (1, 1)), ((0, 1), (1, 0)))
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
    assert cone_from_rays(3, [(2, 0, 0), (0, 1, 0)])._record \
        is cone_from_rays(3, [(0, 1, 0), (1, 0, 0)])._record
    # The cone the same vectors cut out is the other side of that record.
    assert cone_from_halfspaces(3, [(0, 1, 0), (1, 0, 0)])._record \
        is cone_from_rays(3, [(1, 0, 0), (0, 2, 0)])._record


def _conversions(monkeypatch):
    """Spy on the record: the rows of each ``_polar`` pass and each read-back."""
    passes, reads = [], []
    polar, read_back = cones_module._polar, cones_module._read_back
    monkeypatch.setattr(cones_module, "_polar", lambda rows, d, seed:
                        passes.append(rows) or polar(rows, d, seed))
    monkeypatch.setattr(cones_module, "_read_back", lambda rows, masks:
                        reads.append(rows) or read_back(rows, masks))
    return passes, reads


@pytest.mark.usefixtures("cold_caches")
def test_dual_runs_no_pass(monkeypatch):
    # The dual is the other side of the cone's record: building it runs no
    # pass and reads nothing back, and the one pass serves both cones.
    passes, reads = _conversions(monkeypatch)
    c = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])
    d = dual(c)
    assert repr(d) == "Cone(ambient_rank=3, normals=4)"
    assert passes == [] and reads == []
    assert d.rays == c.facets == ((0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1))
    assert len(passes) == 1 and reads == []
    assert d.facets == c.rays and dual(d) == c and dual(dual(d)) == d
    assert len(passes) == len(reads) == 1


@pytest.mark.usefixtures("cold_caches")
def test_the_halfspace_twin_reuses_the_pass(monkeypatch):
    # Once the cone N generates has its facets, the cone N cuts out has its
    # rays: the same pass read from the other side.  Every oracle and the
    # cube and octahedron, both ways round.
    passes, _ = _conversions(monkeypatch)
    cases = [(rank_, gens) for _, rank_, gens, _, _ in _DUALITY_ORACLES]
    for d, vecs in cases + [(4, CUBE_RAYS), (4, OCTAHEDRON_RAYS)]:
        facets = cone_from_rays(d, vecs).facets
        before = len(passes)
        assert cone_from_halfspaces(d, vecs).rays == facets
        assert len(passes) == before
        scaled = [tuple(3 * x for x in v) for v in reversed(vecs)]
        assert cone_from_halfspaces(d, scaled).rays == facets
    assert len(passes) == len(cases) + 2


def test_every_cache_is_bounded(cold_caches):
    # A cache without a bound keeps every cone a long-running process has
    # built; each lru_cache in the package must give a finite maxsize, and
    # the cold_caches fixture must empty it.
    package = Path(cones_module.__file__).parent
    found = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        decorated = {id(d): f.name for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef) for d in f.decorator_list}
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
            module = importlib.import_module(f"formcones.{path.stem}")
            assert getattr(module, decorated.get(id(call), ""), None) in cold_caches, \
                f"{where}: the cold_caches fixture does not empty this lru_cache"
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
    # by the rows it lists as inserted, in their order.
    cases = fuzz_cases()
    cases += [(rank_, gens) for _, rank_, gens, _, _ in _DUALITY_ORACLES]
    for rank_, gens in cases:
        for normals in (gens, cone_from_rays(rank_, gens).facets):
            rows = _validated(normals, rank_, "normal")
            for seed in (frozenset(), frozenset(rows[::2])):
                (_, pointed), (inserted, masks) = _polar(rows, rank_, seed)
                assert len(masks) == len(pointed)
                for r, mask in zip(pointed, masks):
                    tight = sum(1 << k for k, a in enumerate(inserted)
                                if dot(a, r) == 0)
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
    # are compared as values.
    cases = _oracle_corpus() + [(7, CROSS_RAYS + CROSS_INSIDE)]
    for d, vecs in cases:
        state = cones_module._start(d)
        rows = sorted({primitive(v) for v in vecs})
        for idx, a in enumerate(rows):
            before = copy.deepcopy(state)
            after = cones_module._insert(state, idx, a)
            assert state == before, (d, vecs, idx)
            state = after


# -- the ray steps of the pass -------------------------------------------------
#
# A cut of a simplicial cone pairs every negative ray with every positive
# one.  On any other cone a negative ray tight on exactly d - 1 current
# facets is simple and its edges are read off by the pivot; any other
# negative ray goes through the pair loop.  There a simple positive ray makes
# an edge with every negative one that shares d - 2 of its facets, with no
# face test.  ray_steps records which step runs at which row.


@pytest.mark.usefixtures("cold_caches")
def test_cone_over_a_cube():
    # Every ray lies on 3 of the 6 facets, in rank 4: all are simple.  The
    # first four rows cut out a simplicial cone, which (0, 1, 0, 1) cuts on
    # the simplicial route; that leaves (-1, 0, 0, 0) on four facets, and
    # the last row removes it through the pair loop, where every positive
    # ray is simple and needs no face test.  The facets of the cone over
    # the octahedron are the rows of the same pass.
    assert cone_from_halfspaces(4, OCTAHEDRON_RAYS).rays == CUBE_RAYS
    # Both constructors share one record: each runs its own pass only
    # when the cache is emptied before it.
    cones_module._generated.cache_clear()
    assert cone_from_rays(4, OCTAHEDRON_RAYS).facets == CUBE_RAYS
    cones_module._generated.cache_clear()
    assert ray_steps(lambda: cone_from_halfspaces(4, OCTAHEDRON_RAYS).rays) \
        == [(4, "simplicial"), (5, "simple positive ray")]


@pytest.mark.usefixtures("cold_caches")
def test_cone_over_an_octahedron():
    # Every ray lies on 4 of the 8 facets, in rank 4: none is simple.  Row 3
    # cuts a simplicial cone, three rays and a line; the cones cut out later
    # have simple rays, so the pivot runs at rows 5 and 7, and the pair
    # loop at row 6, where it tests faces for the positive rays that are
    # not simple and none for those that are.
    assert cone_from_halfspaces(4, CUBE_RAYS).rays == OCTAHEDRON_RAYS
    cones_module._generated.cache_clear()
    assert cone_from_rays(4, CUBE_RAYS).facets == OCTAHEDRON_RAYS
    cones_module._generated.cache_clear()
    assert ray_steps(lambda: cone_from_halfspaces(4, CUBE_RAYS).rays) == [
        (3, "simplicial"), (5, "pivot"), (6, "pair loop"),
        (6, "simple positive ray"), (7, "pivot")]


@pytest.mark.usefixtures("cold_caches")
def test_cone_with_an_implicit_equality():
    # The negated pair makes x3 = x4 an implicit equality: a cone over a
    # square in a hyperplane.  When the last row cuts off (-1, 0, 0, 0),
    # the edges from it lie on one facet and both equality rows, so they
    # reach the d - 2 common rows only with the equalities counted.  That
    # step runs the pair loop; the negated row cuts a simplicial cone.
    rows = ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 0, 1, -1),
            (0, 1, 0, 1), (1, 0, 0, 1))
    c = cone_from_halfspaces(4, rows)
    assert c.rays == ((-1, -1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, 1),
                      (1, 1, 1, 1))
    assert c.dim == 3
    cones_module._generated.cache_clear()
    assert ray_steps(lambda: cone_from_halfspaces(4, rows).rays) \
        == [(3, "simplicial"), (5, "pair loop")]


@pytest.mark.usefixtures("cold_caches")
def test_every_shortcut_edge_spans_a_two_face():
    # A simple positive ray p lies on d - 1 independent kept rows, so the
    # d - 2 of them that a negative ray n shares cut out a 2-face holding p
    # and n alone.  Checked at every edge the shortcut makes over
    # _edge_corpus.
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

    trace_insert(_edge_corpus, {"edge": STEPS["simple positive ray"]}, visit)
    assert len(checked) > 1000 and all(checked)


def _edge_corpus():
    """Convert both sides of the duality and cofactor oracles and the fuzz
    cases, and every omit-one hull and movable pass of the spaces of Picard
    rank 2 to 10."""
    cases = [(rank_, gens) for _, rank_, gens, _, _ in _DUALITY_ORACLES]
    for d, vecs in cases + _oracle_corpus() + fuzz_cases():
        for c in (cone_from_halfspaces(d, vecs), cone_from_rays(d, vecs)):
            dd_convert(c)
    for s in {spaces_module._shape(s): s for s in omit_one_spaces()}.values():
        movable_cone(s).rays


@pytest.mark.usefixtures("cold_caches")
def test_every_simplicial_edge_spans_a_two_face():
    # The simplicial route pairs every negative ray with every positive one
    # and tests no face.  Each pair it combines must span a 2-face: the rays
    # tight on every row that holds both are the two rays alone.  Checked
    # over the corpus of the shortcut test above.
    checked = []

    def visit(step, local):
        common = local["pmask"] & local["nmask"]
        face = [mask for mask in local["masks"] if mask & common == common]
        checked.append(sorted(face) == sorted((local["pmask"], local["nmask"])))

    trace_insert(_edge_corpus, {"edge": "combine(nvec, an, pvec, ap)"}, visit)
    assert len(checked) > 1000 and all(checked)


@pytest.mark.usefixtures("cold_caches")
def test_both_routes_leave_one_state(monkeypatch):
    # A cut of a simplicial cone leaves the state that the general route,
    # with its kept rows, pivot and pair loop, leaves from the same state:
    # the same rays in the same order, the same masks and the same
    # candidates.  Only the AND of the masks being zero tells the routes
    # apart, so a nonzero one forces the general route on the same state.
    # The route taken is the one the state names: the general route alone
    # calls _kept_rows.  Checked at every cut of both sides of verify's fuzz
    # cones, the cube and the octahedron, and of Mov(quadrics(9))'s hulls
    # and seeded pass.
    insert, kept_rows = cones_module._insert, cones_module._kept_rows
    forced, reads, cuts = [], [], []

    def inserting(state, idx, a):
        lin, vecs, masks, _, _ = state
        before = len(reads)
        got = insert(state, idx, a)
        if any(dot(a, v) for v in lin) or all(dot(a, r) >= 0 for r in vecs):
            return got
        simplicial = (len(vecs) == len(a) - len(lin)
                      and not reduce(and_, masks))
        assert (len(reads) == before) == simplicial, (idx, a)
        cuts.append(simplicial)
        if simplicial:
            forced.append(True)
            try:
                assert insert(state, idx, a) == got, (idx, a)
            finally:
                forced.clear()
            assert len(reads) == before + 1
        return got

    monkeypatch.setattr(cones_module, "reduce",
                        lambda f, xs: -1 if forced else reduce(f, xs))
    monkeypatch.setattr(cones_module, "_kept_rows",
                        lambda *args: reads.append(args) or kept_rows(*args))
    monkeypatch.setattr(cones_module, "_insert", inserting)
    for d, vecs in fuzz_cases() + [(4, CUBE_RAYS), (4, OCTAHEDRON_RAYS)]:
        # The halfspace side on a record of its own, outside the cache, so
        # both sides run their pass.
        for c in (cones_module._seeded(d, vecs, ()), cone_from_rays(d, vecs)):
            dd_convert(c)
    assert len(movable_cone(quadrics(9)).rays) == 256
    # 239 cuts on the simplicial route and 84 on the general one.
    assert (cuts.count(True), cuts.count(False)) == (239, 84)


@pytest.mark.usefixtures("cold_caches")
def test_movable_cone_of_quadrics_12_tests_no_face():
    # Every cut of Mov(quadrics(12))'s hulls and seeded pass that reaches the
    # pair loop leaves one negative ray, a non-simple apex, facing simple
    # positive rays: 2,044 pairs reach the pair loop, and none needs the
    # face test.
    counts = {"pair": 0, "face": 0}

    def visit(step, local):
        counts[step] += 1

    trace_insert(lambda: movable_cone(quadrics(12)).rays,
                 {"pair": "common = pmask & nmask", "face": "face = everyone"},
                 visit)
    assert counts == {"pair": 2044, "face": 0}


@pytest.mark.usefixtures("cold_caches")
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
        trace_insert(lambda: cone_from_rays(6, rays).facets,
                     {"pair": "common = pmask & nmask"}, visit)


# -- the seeded check on packed lanes -------------------------------------------
#
# A seeded pass packs the columns of the rays its seed cuts out into lanes and
# checks every other row on them with one sign test; the step itself
# classifies on column tuples.

def _narrowest(lanes, bound, vecs):
    """True when ``lanes`` has the fewest bytes that hold ``bound * reach``.

    A lane of ``size`` bytes holds ``|v| < 2 ** (8 * size - 1)``; one byte
    fewer would not.
    """
    most = bound * max(abs(x) for r in vecs for x in r)
    return most < 2 ** (8 * lanes.size - 1) and (
        lanes.size == 1 or most >= 2 ** (8 * lanes.size - 9))


@pytest.mark.parametrize("reach_bits, words", [(2, 1), (62, 2), (200, 4)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lane_signs_match_dot(reach_bits, words, data):
    # The lanes' sign bits, read by _lane_holds, match the dot products.
    # Coordinates up to 2^2, up to 2^62, just below a signed 64-bit word,
    # and up to 2^200, past it: lanes of one byte, of nine, and of 26,
    # each the narrowest and never wider than the ``words`` 64-bit
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
        assert cones_module._lane_holds(lanes, a) == (min(values) >= 0)
        turned = [r if v >= 0 else negate(r) for r, v in zip(vecs, values)]
        i = next(i for i, c in enumerate(a) if c)
        below = tuple(-a[i] // abs(a[i]) if k == i else 0 for k in range(d))
        # No negative ray, then the only one in the first and in the last lane.
        for rays, want in ((turned, True), ([below] + turned, False),
                           (turned + [below], False)):
            packed = cones_module._pack(list(zip(*rays)), 4 * d)
            assert _narrowest(packed, 4 * d, rays) and packed.size <= 8 * words
            assert cones_module._lane_holds(packed, a) == want


@pytest.mark.parametrize("k", [1, 2, 4, 8, 9])
def test_lanes_at_the_edge_of_their_width(k):
    # bound * reach two below 2^(8k - 1), the largest multiple of 3 below
    # it, fits lanes of k bytes, and exactly 2^(8k - 1) takes k + 1.  Every
    # row reaches the bound on some ray, so a lane holds +-bound * reach;
    # each row is checked on the rays turned to its side, alone and with
    # the ray of value -bound * reach in the first or the last lane.
    for most, size, bound, rows in (
            (2 ** (8 * k - 1) - 2, k, 3,
             [(1, 2), (2, -1), (-1, 2), (-2, -1), (0, 3)]),
            (2 ** (8 * k - 1), k + 1, 4,
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
                assert cones_module._lane_holds(lanes, a) == (min(dots) >= 0)


_EDGES = (-2 ** 63, 2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 64, 2 ** 127,
          -2 ** 127, 0, 1, -1)


@pytest.mark.parametrize("cols, bound, size", [
    # The edges of one, two and three 64-bit limbs, in lanes narrower than
    # three limbs and, at bound 2^70, one byte wider.
    ((_EDGES, _EDGES[::-1]), 1, 17),
    ((_EDGES, _EDGES[::-1]), 2 ** 70, 25),
    (((-2 ** 63, 2 ** 63 - 1, 0), (5, -5, 2 ** 62)), 1, 9),
    (((2 ** 63 - 1, -(2 ** 63 - 1)), (-1, 1)), 1, 8),
    # One limb in lanes of 11 bytes: three sign bytes past the limb.
    (((2 ** 62, -2 ** 62, 5, -1), (-1, 0, 2 ** 61, -2 ** 62)), 2 ** 20, 11),
    # A single ray, and columns with no nonnegative coordinate.
    (((-7,), (3,)), 2, 1),
    (((-1, -2 ** 40, -255, -128), (-2 ** 39, -1, -256, -129)), 1, 6),
], ids=["limb-edges", "limb-edges-and-a-sign-byte", "two-limbs", "one-limb",
        "sign-bytes", "single-ray", "all-negative"])
def test_packed_columns_are_the_sum_of_their_shifted_coordinates(cols, bound,
                                                                 size):
    # Each column is exactly sum(x_j << (8 * size * j)), and half holds the
    # top bit of every lane.
    lanes = cones_module._pack(cols, bound)
    assert lanes.size == size
    assert lanes.half == sum(1 << (8 * size * j + 8 * size - 1)
                             for j in range(len(cols[0])))
    assert lanes.cols == tuple(sum(x << (8 * size * j) for j, x in enumerate(col))
                               for col in cols)


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
    # redundant row, moved by U.  The rays' coordinates pass 2^64.  Seeded
    # with the moved cube's facets, the pass checks every redundant row on
    # lanes wider than 8 bytes, and each keeps every ray.
    cube = cone_from_halfspaces(7, CROSS_RAYS)
    normals = _sheared_cube_normals()
    facets = [_backward(a) for a in CROSS_RAYS]
    moved = cone_from_halfspaces(7, normals)
    seeded = cones_module._seeded(7, normals, facets)
    inserted, packs, kept = _lane_counts(monkeypatch)
    for c in (moved, seeded):
        assert c.rays == tuple(sorted(_forward(r) for r in cube.rays))
        assert c.facets == tuple(sorted(_backward(a) for a in cube.facets))
    assert max(map(abs, sum(moved.rays, ()))) > 2 ** 64
    assert len(packs) == 1 and packs[0][1] > 8
    assert len(kept) == len(seeded._record.vectors) - len(facets) and all(kept)


def _lane_counts(monkeypatch):
    """Spy on the pass: rows inserted, packs made, and each lane check.

    Returns ``(inserted, packs, kept)``: the position of each row
    ``_insert`` is given, the ``(count, size)`` of each ``_pack``, and for
    each ``_lane_holds`` call whether it found no negative ray.
    """
    inserted, packs, kept = [], [], []
    insert, pack = cones_module._insert, cones_module._pack
    lane_holds = cones_module._lane_holds

    def packing(cols, bound):
        lanes = pack(cols, bound)
        packs.append((len(cols[0]), lanes.size))
        return lanes

    def holds(lanes, a):
        kept.append(lane_holds(lanes, a))
        return kept[-1]

    monkeypatch.setattr(cones_module, "_insert",
                        lambda state, idx, a: inserted.append(idx)
                        or insert(state, idx, a))
    monkeypatch.setattr(cones_module, "_pack", packing)
    monkeypatch.setattr(cones_module, "_lane_holds", holds)
    return inserted, packs, kept


def _quadrics_12_rows():
    """The 144 rows of Mov(quadrics(12)), which its final pass cuts it out by."""
    rows = movable_cone(quadrics(12))._record.vectors
    assert len(rows) == 144
    return rows


@pytest.mark.usefixtures("cold_caches")
def test_movable_pass_of_quadrics_12_on_lanes(monkeypatch):
    # The unseeded pass over Mov(quadrics(12))'s 144 rows inserts all of
    # them and classifies each on column tuples: it packs no lanes and
    # makes no lane check.
    rows = _quadrics_12_rows()
    inserted, packs, kept = _lane_counts(monkeypatch)
    assert len(cone_from_halfspaces(12, rows).rays) == 2048
    assert inserted == list(range(144))
    assert packs == [] and kept == []


@pytest.mark.usefixtures("cold_caches")
def test_seeded_movable_pass_of_quadrics_12_on_lanes(monkeypatch):
    # Seeded with the 22 closed-form facets, the pass inserts those alone,
    # packs the 2,048 rays they cut out once, on lanes of 4 bytes, as 28
    # bits hold bound 25 times reach 3,932,160 with a sign bit, and checks
    # each of the 122 other rows with one sign test; every one keeps every
    # ray, and no check reads a zero set, although 110 rows are tight on
    # some.
    mov = movable_cone(quadrics(12))
    assert len(mov._record.seed) == 22
    inserted, packs, kept = _lane_counts(monkeypatch)
    assert len(mov.rays) == 2048
    assert inserted == list(range(22))
    assert packs == [(2048, 4)]
    assert len(kept) == 122 and all(kept)


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

    @wraps(insert)
    def inserting(state, idx, a):
        current.append((state[2], idx))
        try:
            return insert(state, idx, a)
        finally:
            current.pop()

    def reading(rows, masks):
        current.append((masks, len(rows)))
        try:
            return read_back(rows, masks)
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


@pytest.mark.usefixtures("cold_caches")
def test_candidate_rows_keep_what_all_rows_keep(monkeypatch):
    # Both sides of every oracle, fuzz and cross-polytope case, the sheared
    # cube past 64 bits, and the omit-one hulls and final pass of
    # Mov(quadrics(8)).
    calls = _checking_kept_rows(monkeypatch)
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


@pytest.mark.usefixtures("cold_caches")
def test_a_row_that_lowers_the_dimension_makes_every_row_a_candidate(monkeypatch):
    expected = _cofactor_rays(3, DROP_ROWS)
    assert expected == ((0, -1, 0), (1, -1, 0))
    states = []
    insert = cones_module._insert
    monkeypatch.setattr(cones_module, "_insert",
                        lambda state, idx, a:
                        states.append(insert(state, idx, a)) or states[-1])
    assert cone_from_halfspaces(3, DROP_ROWS).rays == expected
    monkeypatch.undo()
    assert len(states) == len(DROP_ROWS)
    assert [len(s[1]) for s in states] == [1, 2, 3, 3, 2, 2, 2]
    assert states[3][4] == 0b1111
    assert states[4][4] == 0b11111
    assert states[5][4] == 0b111101
    calls = _checking_kept_rows(monkeypatch)
    # The two constructors share a record, so the cache is emptied before
    # each to run both passes.
    cones_module._generated.cache_clear()
    h = cone_from_halfspaces(3, DROP_ROWS)
    cones_module._generated.cache_clear()
    g = cone_from_rays(3, DROP_ROWS)
    simplicial = _simplicial_cuts(lambda: h.rays == g.facets)
    assert h.rays == g.facets == expected
    # The face's equality x2 = 0 as a pair, and its two facets, row 0 or 1
    # reduced modulo x2 and row 6.
    assert h.facets == ((-1, -1, 0), (0, 0, -1), (0, 0, 1), (1, 0, 0))
    # Rows 3 to 6 cut in each pass: four cuts on the simplicial route, which
    # calls no _kept_rows, and four on the general route, which calls it
    # once a cut, as the read-back does.
    assert len(calls) == 5 and len(simplicial) == 4


def _kept_row_reads(monkeypatch):
    """The number of zero sets each ``_kept_rows`` call reads."""
    read = []
    kept_rows = cones_module._kept_rows
    monkeypatch.setattr(cones_module, "_kept_rows",
                        lambda zero_sets, everyone: read.append(len(zero_sets))
                        or kept_rows(zero_sets, everyone))
    return read


def _simplicial_cuts(build):
    """The rows at which ``build``'s steps cut on the simplicial route."""
    cuts = []
    trace_insert(build, {"simplicial": STEPS["simplicial"]},
                 lambda step, local: cuts.append(local["idx"]))
    return cuts


@pytest.mark.usefixtures("cold_caches")
def test_movable_pass_of_quadrics_12_reads_candidate_rows(monkeypatch):
    # The unseeded pass over Mov(quadrics(12))'s rows cuts at 78 rows: 57 cut
    # a simplicial cone and read no zero set, and the other 21 compute their
    # kept rows.  Over every row inserted so far those would read 3,884 zero
    # sets, up to 89 at a cut; over the candidate rows they read 370, at most
    # 22.
    rows = _quadrics_12_rows()
    read = _kept_row_reads(monkeypatch)
    c = cone_from_halfspaces(12, rows)
    simplicial = _simplicial_cuts(lambda: c.rays)
    assert len(c.rays) == 2048
    assert len(simplicial) == 57
    assert (len(read), sum(read), max(read)) == (21, 370, 22)


@pytest.mark.usefixtures("cold_caches")
def test_unseeded_read_back_reads_every_inserted_row(monkeypatch):
    # The read-back of that unseeded pass reads the zero set of each of the
    # 144 rows it inserted once, in one call, and keeps 22 facets.
    c = cone_from_halfspaces(12, _quadrics_12_rows())
    assert len(c.rays) == 2048
    read = _kept_row_reads(monkeypatch)
    assert len(c.facets) == 22
    assert read == [144]


@pytest.mark.usefixtures("cold_caches")
def test_seeded_movable_pass_of_quadrics_12_reads_candidate_rows(monkeypatch):
    # Seeded, 10 of the 22 closed-form facets cut and the other 12 are
    # lineality steps.  One cut is of a simplicial cone; the other 9 read
    # zero sets, 153 of them, at most 21.  The read-back reads the 22
    # inserted rows alone.
    mov = movable_cone(quadrics(12))
    read = _kept_row_reads(monkeypatch)
    assert len(_simplicial_cuts(lambda: mov.rays)) == 1
    assert len(mov.rays) == 2048
    assert (len(read), sum(read), max(read)) == (9, 153, 21)
    assert len(mov.facets) == 22
    assert read[9:] == [22]


# -- seeded passes -------------------------------------------------------------
#
# A seed only orders the pass and spares it rows: whatever the seed, the cone
# comes out as the unseeded pass over the same rows gives it.


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
                        c = cones_module._seeded(rank_, rows, seed + extra)
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
    rows, facets = mov._record.vectors, mov._record.seed
    assert facets and facets <= set(rows)
    plain = cone_from_halfspaces(rho, rows)
    redundant = next(a for a in rows if a not in facets)
    stray = (1,) * rho
    assert stray not in rows
    seeds = [facets - {f} for f in sorted(facets)]
    seeds += [facets | {stray}, facets | {redundant}]
    for seed in seeds:
        c = cones_module._seeded(rho, rows, seed)
        assert c.rays == plain.rays, seed
        assert c.facets == plain.facets, seed
    assert mov.rays == plain.rays and mov.facets == plain.facets


def test_an_empty_seed_inserts_every_row_in_order(monkeypatch):
    # With no row in the seed the pass is the plain one: rows 0..N-1, in
    # order, and an incidence that lists them in that order.
    rows = _validated(CROSS_RAYS + CROSS_INSIDE, 7, "normal")
    plain = _polar(rows, 7)
    inserted, _, _ = _lane_counts(monkeypatch)
    for seed in (frozenset(), frozenset({(1,) * 7})):
        assert (1,) * 7 not in rows
        inserted.clear()
        got = _polar(rows, 7, seed)
        assert inserted == list(range(len(rows)))
        assert got == plain and got[1][0] == rows
