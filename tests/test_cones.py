import pytest
from hypothesis import given, settings, strategies as st

from formcones.cones import (
    Cone,
    _polar,
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
    NotFullDimensional,
    NotPointed,
)
from formcones.linalg import dot
from formcones.verify import (
    _DUALITY_ORACLES,
    FUZZ_COUNT,
    FUZZ_SEED,
    check_cone_case,
    fuzz_cases,
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
    cases = fuzz_cases(FUZZ_SEED, FUZZ_COUNT)
    assert len(cases) == FUZZ_COUNT
    failures = [check_cone_case(rank, gens) for rank, gens in cases]
    assert [f for f in failures if f] == []


def test_polar_masks_are_the_zero_sets_of_its_rays():
    # ``_polar`` decides adjacency and ``_read_back`` picks maximal faces
    # from these masks alone, so each must be exactly the rows tight on its
    # ray, recomputed here by inner products, and no two may be equal.
    cases = fuzz_cases(FUZZ_SEED, FUZZ_COUNT)
    cases += [(rank_, gens) for _, rank_, gens, _, _ in _DUALITY_ORACLES]
    for rank_, gens in cases:
        for normals in (gens, cone_from_rays(rank_, gens).facets):
            (_, pointed), (rows, masks) = _polar(normals, rank_)
            assert len(masks) == len(pointed)
            for r, mask in zip(pointed, masks):
                tight = sum(1 << i for i, a in enumerate(rows) if dot(a, r) == 0)
                assert mask == tight, (rank_, normals, r)
            assert len(set(masks)) == len(masks), (rank_, normals)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.lists(
            st.tuples(*[coord] * r).filter(any), min_size=1, max_size=6
        ).map(lambda gens: (r, gens))
    )
)
def test_random_cone_double_description(case):
    rank_, gens = case
    c = cone_from_rays(rank_, gens)
    assert dual(dual(c)) == c
    for g in gens:
        assert c.contains(g)
    assert cone_from_rays(rank_, list(c.rays) + list(gens)) == c
    assert cone_from_halfspaces(rank_, c.facets) == c
