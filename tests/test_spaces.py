from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from formcones import spaces as spaces_module
from formcones.cones import cone_from_halfspaces, cone_from_rays, omit_one_hulls
from formcones.errors import DegenerateSpace, DimensionMismatch
from formcones.spaces import (
    CurveClass,
    DivisorClass,
    GradingMatrix,
    SpaceSpec,
    anticanonical_class,
    canonical_class,
    collineations,
    divisor_D,
    divisor_E,
    effective_cone,
    grading_matrix,
    is_fano,
    mori_cone,
    movable_cone,
    moving_curve_cone,
    nef_cone,
    pairing,
    quadrics,
)


def test_space_constructors_and_validation():
    assert collineations(3) == SpaceSpec("collineations", 3, 3, None)
    assert collineations(2, 5).m == 5
    assert quadrics(4).family == "quadrics"
    with pytest.raises(ValueError):
        collineations(4, 2)
    with pytest.raises(ValueError):
        collineations(0)
    with pytest.raises(ValueError):
        collineations(3, stage=0)
    with pytest.raises(ValueError):
        collineations(3, stage=3)
    with pytest.raises(ValueError):
        quadrics(2, stage=2)
    with pytest.raises(ValueError):
        SpaceSpec("flags", 2, 2, None)


def test_describe_and_square():
    assert collineations(3).is_square
    assert not collineations(2, 4).is_square
    assert quadrics(3).is_square
    assert "collineations" in collineations(2, 4).describe()
    assert "stage" in collineations(3, stage=1).describe()


def test_picard_rank():
    assert collineations(3).picard_rank == 3
    assert quadrics(5).picard_rank == 5
    assert collineations(3, 7).picard_rank == 4
    assert collineations(4, stage=1).picard_rank == 2
    assert quadrics(5, stage=2).picard_rank == 3


def test_divisor_classes():
    s = collineations(3)
    assert divisor_D(s, 1).coords == (1, 0, 0)
    assert divisor_D(s, 2).coords == (2, -1, 0)
    assert divisor_D(s, 3).coords == (3, -2, -1)
    assert divisor_D(s, 4).coords == (4, -3, -2)
    assert divisor_E(s, 1).coords == (0, 1, 0)
    assert divisor_E(s, 2).coords == (0, 0, 1)
    assert divisor_E(s, 3).coords == (4, -3, -2)
    assert divisor_E(s, 1).label == "E_1"
    assert divisor_D(s, 2).label == "D_2"
    with pytest.raises(ValueError):
        divisor_D(s, 0)
    with pytest.raises(ValueError):
        divisor_D(s, 5)


def test_divisor_classes_truncate_on_stages():
    s = collineations(3, stage=1)
    assert divisor_D(s, 2).coords == (2, -1)
    assert divisor_E(s, 1).coords == (0, 1)


def test_canonical_classes():
    assert anticanonical_class(collineations(3)).coords == (16, -8, -3)
    assert anticanonical_class(quadrics(2)).coords == (6, -2)
    assert anticanonical_class(collineations(3, stage=1)).coords == (16, -8)
    k = canonical_class(collineations(3))
    assert k.coords == (-16, 8, 3)
    assert (-k).coords == (16, -8, -3)


def test_effective_and_nef_rays():
    assert effective_cone(collineations(3)).rays == (
        (0, 0, 1),
        (0, 1, 0),
        (4, -3, -2),
    )
    assert nef_cone(collineations(3)).rays == ((1, 0, 0), (2, -1, 0), (3, -2, -1))
    assert effective_cone(collineations(2)).rays == ((0, 1), (3, -2))
    assert nef_cone(collineations(2)).rays == ((1, 0), (2, -1))
    assert effective_cone(collineations(2, 6)).rays == (
        (0, 0, 1),
        (0, 1, 0),
        (3, -2, -1),
    )


def test_quadrics_share_collineation_cones():
    for n in range(2, 7):
        assert effective_cone(quadrics(n)) == effective_cone(collineations(n))
        assert nef_cone(quadrics(n)) == nef_cone(collineations(n))
        assert movable_cone(quadrics(n)) == movable_cone(collineations(n))


def test_rank_one_spaces_are_degenerate():
    with pytest.raises(DegenerateSpace):
        nef_cone(collineations(1))
    with pytest.raises(DegenerateSpace):
        effective_cone(quadrics(1))


def test_mori_cone_oracle():
    assert mori_cone(collineations(3)).rays == ((0, 0, 1), (0, 1, -2), (1, -2, 1))
    assert mori_cone(collineations(2)).rays == ((0, 1), (1, -2))


def test_moving_curve_oracles():
    assert moving_curve_cone(collineations(2)).rays == ((1, 0), (2, -3))
    assert moving_curve_cone(collineations(3)).rays == (
        (1, 0, -2),
        (1, 0, 0),
        (3, -4, 0),
    )


def test_movable_oracles():
    assert movable_cone(collineations(3)).rays == (
        (1, 0, 0),
        (2, -1, 0),
        (3, -2, -1),
        (6, -3, -2),
    )
    assert movable_cone(collineations(2)) == nef_cone(collineations(2))


def test_movable_is_m_independent():
    base = movable_cone(collineations(2, 3))
    for m in (4, 5, 7):
        assert movable_cone(collineations(2, m)) == base


def test_movable_ray_count_law_small():
    for n in range(2, 7):
        assert len(movable_cone(collineations(n)).rays) == 2 ** (n - 1)
        assert len(movable_cone(quadrics(n)).rays) == 2 ** (n - 1)
    for n in range(2, 5):
        assert len(movable_cone(collineations(n, n + 2)).rays) == 2 ** (n - 1) + 1


def test_movable_brute_force_agrees_small():
    for s in (collineations(2), collineations(3), collineations(2, 4), quadrics(4)):
        assert movable_cone(s, brute_force=True) == movable_cone(s)


def _omit_one_spaces():
    """Every space of Picard rank 2..10 in the families xn, qn and xnm.

    xnm means collineations(n, m) with m = n+1..n+3; every stage of each
    space is included.
    """
    bases = [make(n) for n in range(2, 11) for make in (collineations, quadrics)]
    bases += [collineations(n, n + k) for n in range(1, 10) for k in (1, 2, 3)]
    out = []
    for s in bases:
        out.append(s)
        out += [replace(s, stage=i) for i in range(1, s.n)]
    return out


def test_omit_one_hulls_match_one_pass_per_hull():
    # The default route of movable_cone inserts the shared columns once and
    # the omitted ones by halves; each hull must equal its own pass.  Many
    # stages share their columns, so 243 spaces pose 90 distinct problems.
    spaces = _omit_one_spaces()
    assert len(spaces) == 243
    problems = {}
    for s in spaces:
        gm = grading_matrix(s)
        problems.setdefault((s.picard_rank, frozenset(gm.distinct_coords()),
                             frozenset(gm.multiplicity_one_coords())), s)
    assert len(problems) == 90
    for (rho, distinct, once), s in problems.items():
        expected = {c: cone_from_rays(rho, sorted(distinct - {c})).facets
                    for c in once}
        assert omit_one_hulls(rho, distinct - once, once) == expected, s


def test_omit_one_hulls_edge_cases():
    square = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
    # One omitted vector: its hull is the pass over the shared ones.
    assert omit_one_hulls(3, square[1:], square[:1]) == {
        square[0]: cone_from_rays(3, square[1:]).facets}
    # No shared vectors: the halves alone make every hull.
    assert omit_one_hulls(3, (), square) == {
        c: cone_from_rays(3, [v for v in square if v != c]).facets
        for c in square}
    # Two omitted vectors and nothing shared: each hull is one ray.
    assert omit_one_hulls(2, (), [(1, 0), (2, 1)]) == {
        (1, 0): cone_from_rays(2, [(2, 1)]).facets,
        (2, 1): cone_from_rays(2, [(1, 0)]).facets}
    # No omitted vectors: no hull at all.
    assert omit_one_hulls(3, square, ()) == {}


def test_movable_without_multiplicity_one_columns_is_effective(monkeypatch):
    # With every column repeated, leaving one copy out changes no hull, so
    # Mov is cut out by Eff's facets alone.
    s = collineations(3)
    gm = grading_matrix(s)
    repeated = GradingMatrix(s, tuple((cls, 2) for cls, _ in gm.columns))
    monkeypatch.setattr(spaces_module, "grading_matrix", lambda _: repeated)
    assert movable_cone(s) == cone_from_halfspaces(3, effective_cone(s).facets)
    assert movable_cone(s, brute_force=True) == movable_cone(s)


def test_nested_cone_inclusions():
    for s in (collineations(3), collineations(2, 5), quadrics(4), collineations(5)):
        nef = nef_cone(s)
        mov = movable_cone(s)
        eff = effective_cone(s)
        for r in nef.rays:
            assert mov.contains(r)
        for r in mov.rays:
            assert eff.contains(r)


def test_mori_pairs_nonnegatively_with_nef():
    for s in (collineations(3), quadrics(4), collineations(2, 5)):
        for c in mori_cone(s).rays:
            for d in nef_cone(s).rays:
                assert pairing(CurveClass(c), DivisorClass(d)) >= 0


def test_moving_curves_pair_nonnegatively_with_movable():
    for s in (collineations(3), quadrics(4), collineations(3, 6)):
        for c in moving_curve_cone(s).rays:
            for d in movable_cone(s).rays:
                assert pairing(CurveClass(c), DivisorClass(d)) >= 0


def test_pairing_oracle():
    s = collineations(3)
    assert pairing(CurveClass((1, -2, 1)), anticanonical_class(s)) == 3
    assert pairing(CurveClass((1, 0, 0)), DivisorClass((1, 0, 0))) == 1
    assert pairing(CurveClass((0, 1, 0)), DivisorClass((0, 1, 0))) == -1


def test_pairing_rejects_mixed_ranks():
    with pytest.raises(DimensionMismatch):
        pairing(CurveClass((1, 0)), DivisorClass((1, 0, 0)))


def test_is_fano():
    for s in (collineations(2), collineations(3), quadrics(4), collineations(2, 5)):
        assert is_fano(s)
    assert not is_fano(collineations(3, stage=1))
    assert is_fano(collineations(2, stage=1))


def test_grading_matrix_columns_live_in_effective_cone():
    for s in (collineations(3), quadrics(3), collineations(2, 4)):
        eff = effective_cone(s)
        g = grading_matrix(s)
        for coords in g.distinct_coords():
            assert eff.contains(coords)
        assert g.space == s


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("make", [quadrics, collineations,
                                  lambda n: collineations(n, n + 1)],
                         ids=["qn", "xn", "xnm"])
def test_movable_facets_match_a_second_pass(make, n):
    # movable_cone is built from normals, so its facets are read back from
    # the pass that found its rays.  The cone regenerated from those rays
    # finds its facets by a pass of its own.
    s = make(n)
    mov = movable_cone(s)
    assert mov.facets == cone_from_rays(s.picard_rank, mov.rays).facets


def test_movable_facet_counts():
    """Facet counts of the movable cones for 3 <= n <= 9.

    2n - 2 for quadrics(n) and collineations(n), 2n - 1 for
    collineations(n, n+1).  These are regression values of this code,
    cross-checked by the two-pass route of
    ``test_movable_facets_match_a_second_pass``; they are not quoted
    from the paper.
    """
    for n in range(3, 10):
        assert len(movable_cone(quadrics(n)).facets) == 2 * n - 2
        assert len(movable_cone(collineations(n)).facets) == 2 * n - 2
        assert len(movable_cone(collineations(n, n + 1)).facets) == 2 * n - 1


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
def test_cone_tower_properties(n, extra, quad):
    s = quadrics(n) if quad else collineations(n, n + extra)
    rho = s.picard_rank
    nef = nef_cone(s)
    assert nef.rays == tuple(
        sorted(divisor_D(s, k).coords for k in range(1, rho + 1))
    )
    mov = movable_cone(s)
    eff = effective_cone(s)
    assert nef.is_pointed and mov.is_pointed and eff.is_pointed
    assert nef.is_full_dimensional
    assert eff.is_full_dimensional
    inter = cone_from_rays(rho, nef.rays + mov.rays)
    assert inter == mov
