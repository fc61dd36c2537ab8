import pytest
from hypothesis import given, settings, strategies as st

from formcones import cones as cones_module
from formcones import spaces as spaces_module
from formcones.cones import (
    cone_from_halfspaces,
    cone_from_rays,
    extremal_rays,
    omit_one_hulls,
)
from formcones.errors import DegenerateSpace, DimensionMismatch, InternalError
from formcones.formulas import minor_multiplicity, movable_facets
from formcones.spaces import (
    CurveClass,
    DivisorClass,
    GradingMatrix,
    SpaceSpec,
    _involution,
    _shape,
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
from support import CROSS_INSIDE, CROSS_RAYS, omit_one_spaces


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


def test_divisor_D_takes_its_vanishing_orders_from_minor_multiplicity():
    # Coefficient h of D_k is minus the order of the k x k minors along the
    # rank-h locus, that is minor_multiplicity(k, h + 1) = max(k - h, 0).
    whole = [f(n) for n in range(1, 9) for f in (collineations, quadrics)]
    whole += [collineations(n, n + 2) for n in range(1, 9)]
    for s in whole + [SpaceSpec(s.family, s.n, s.m, i)
                      for s in whole for i in range(1, s.n)]:
        for k in range(1, s.n + 2):
            coords = divisor_D(s, k).coords
            assert len(coords) == s.picard_rank and coords[0] == k
            for h in range(1, s.picard_rank):
                assert coords[h] == -minor_multiplicity(k, h + 1), (s, k, h)
                assert coords[h] == -max(k - h, 0), (s, k, h)


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


def test_brute_force_shares_nothing_with_the_default_route(monkeypatch):
    # Right after the default route, brute force still runs one pass per
    # hull (4 omitted columns and all 8 columns) and one for the cone, each
    # unseeded, and leaves the default route's slot as it found it.
    s = quadrics(4)
    mov = movable_cone(s)
    rays = mov.rays
    slot = dict(spaces_module._last_movable)
    cones_module._generated.cache_clear()
    passes = []
    polar = cones_module._polar
    monkeypatch.setattr(cones_module, "_polar",
                        lambda rows, d, seed: passes.append(seed)
                        or polar(rows, d, seed))
    slow = movable_cone(s, brute_force=True)
    assert len(passes) == 5
    assert slow is not mov and slow.rays == rays
    assert passes == [frozenset()] * 6
    assert mov._record.seed
    assert list(spaces_module._last_movable.items()) == list(slot.items())
    assert spaces_module._last_movable[next(iter(slot))] is mov


def test_omit_one_hulls_match_one_pass_per_hull():
    # The default route of movable_cone inserts the shared columns once and
    # the omitted ones by halves; each hull must equal its own pass.  Many
    # stages share their columns, so 243 spaces pose 90 distinct problems.
    spaces = omit_one_spaces()
    assert len(spaces) == 243
    problems = {}
    for s in spaces:
        problems.setdefault(_shape(s), s)
    assert len(problems) == 90
    for (rho, columns, once), s in problems.items():
        distinct, once = frozenset(columns), frozenset(once)
        expected = {c: cone_from_rays(rho, sorted(distinct - {c})).facets
                    for c in once}
        assert omit_one_hulls(rho, distinct - once, once) == expected, s


def test_spaces_of_one_format_share_a_shape():
    # The shape is all that Mov and the chamber walk read of a space.
    for n in range(2, 12):
        assert _shape(quadrics(n)) == _shape(collineations(n))
        assert len({_shape(collineations(n, n + k)) for k in (1, 2, 3)}) == 1
    assert _shape(collineations(3)) != _shape(collineations(3, 4))


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
    # Shared vectors over a cross-polytope, with 64 facets, and omitted ones
    # inside it: every hull keeps those facets.
    assert omit_one_hulls(7, CROSS_RAYS, CROSS_INSIDE) == {
        c: cone_from_rays(7, CROSS_RAYS + tuple(v for v in CROSS_INSIDE
                                                if v != c)).facets
        for c in CROSS_INSIDE}


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


def _curves_by_halfspaces(divisors):
    """The reference route: cut out by the flipped extremal rays."""
    return cone_from_halfspaces(divisors.ambient_rank,
                                [_involution(r) for r in extremal_rays(divisors)])


def test_curve_cones_match_the_halfspace_route():
    for s in omit_one_spaces() + [quadrics(40)]:
        for curves, divisors in ((mori_cone(s), nef_cone(s)),
                                 (moving_curve_cone(s), effective_cone(s))):
            reference = _curves_by_halfspaces(divisors)
            assert curves.rays == reference.rays, s.describe()
            assert curves.facets == reference.facets, s.describe()
            assert curves.dim == reference.dim == s.picard_rank
            assert curves.lineality_dim == reference.lineality_dim == 0


def test_curve_cones_run_no_pass(monkeypatch):
    s = collineations(5, 7)
    nef, eff = nef_cone(s), effective_cone(s)
    _ = nef.rays, nef.facets, eff.rays, eff.facets
    passes = []
    polar = cones_module._polar
    monkeypatch.setattr(cones_module, "_polar",
                        lambda *args: passes.append(args) or polar(*args))
    for curves in (mori_cone(s), moving_curve_cone(s)):
        _ = curves.rays, curves.facets, curves.dim, curves.lineality_dim
    assert passes == []


def test_curve_cones_need_a_full_dimensional_divisor_cone():
    flat = cone_from_rays(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(InternalError, match="not full"):
        spaces_module._curves_against(flat)


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


def _fano_by_mori_cone(s):
    """The reference route: -K pairs positively with every Mori extremal ray."""
    if s.picard_rank == 1:
        return True
    mk = anticanonical_class(s)
    return all(pairing(r, mk) > 0 for r in extremal_rays(mori_cone(s)))


def test_is_fano_matches_the_mori_cone_route():
    # The spaces of acceptance criterion 06 and every blow-up stage of them.
    whole = [collineations(n, m) for n in range(1, 7) for m in range(n, 7)]
    whole += [quadrics(n) for n in range(2, 7)]
    spaces = whole + [SpaceSpec(s.family, s.n, s.m, i)
                      for s in whole for i in range(1, s.n)]
    got = [is_fano(s) for s in spaces]
    assert got == [_fano_by_mori_cone(s) for s in spaces]
    assert True in got and False in got


def test_is_fano_builds_no_curve_cone(monkeypatch):
    def refuse(s):
        raise AssertionError(f"is_fano built the Mori cone of {s.describe()}")

    monkeypatch.setattr(spaces_module, "mori_cone", refuse)
    assert is_fano(collineations(3))
    assert is_fano(quadrics(5))
    assert not is_fano(collineations(3, stage=1))


def test_effective_cone_is_the_cone_over_the_cox_degrees():
    # Hu and Keel ("Mori dream spaces and GIT", 2000): the effective cone of
    # a Mori dream space is the cone over the degrees of its Cox generators,
    # here every grading column and not only the generators Eff is built from.
    for s in omit_one_spaces():
        by_columns = cone_from_rays(s.picard_rank, grading_matrix(s).distinct_coords())
        assert effective_cone(s) == by_columns, s.describe()


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


def test_movable_facets_in_closed_form():
    # The closed form against the pass, for n = 2..11 in both families and
    # wide formats with m = n+1..n+3, every stage included, and for
    # collineations(1, m).
    spaces = [collineations(1, m) for m in (2, 3, 4)]
    for n in range(2, 12):
        for s in (quadrics(n), collineations(n), *(collineations(n, n + k)
                                                   for k in (1, 2, 3))):
            spaces += [s] + [SpaceSpec(s.family, n, s.m, i) for i in range(1, n)]
    assert len(spaces) == 328
    for s in spaces:
        assert movable_facets(s) == set(movable_cone(s).facets), s.describe()
    assert movable_facets(quadrics(1)) == frozenset()


@pytest.mark.usefixtures("cold_caches")
def test_movable_cones_stay_out_of_the_cone_cache():
    # A movable cone's seeded record is its own, so building and converting
    # one adds nothing to the cache of records: a cache that kept every
    # movable cone raised `bench --family qn --n 14..16` from 54 to 70 MB.
    # Eff, whose facets are among Mov's rows, is built first.
    for s in (quadrics(6), collineations(4, 6), quadrics(7, stage=3)):
        effective_cone(s).facets
        size = cones_module._generated.cache_info().currsize
        mov = movable_cone(s)
        assert mov.rays and mov.facets and mov._record.seed
        assert cones_module._generated.cache_info().currsize == size


def test_spaces_of_one_shape_share_one_seed():
    # The seed is a function of what the shape determines, so the route a
    # shape takes does not depend on which of its spaces comes first.
    seeds = {}
    for s in omit_one_spaces():
        assert seeds.setdefault(_shape(s), movable_facets(s)) == movable_facets(s), \
            s.describe()
    spaces_module._last_movable.clear()
    stage = movable_cone(quadrics(9, stage=8))
    assert movable_cone(quadrics(9)) is stage
    assert stage._record.seed == movable_facets(quadrics(9))


def test_seeded_movable_cones_match_the_unseeded_pass():
    # The default route seeds its pass with the closed-form facets; the
    # unseeded pass over the same rows must give the same cone.  Spaces of
    # one shape and seed pose one problem.
    problems = {}
    for s in omit_one_spaces():
        problems.setdefault(_shape(s), s)
    assert len(problems) == 90
    seeded = 0
    for shape, s in problems.items():
        spaces_module._last_movable.clear()
        mov = movable_cone(s)
        seed = movable_facets(s)
        assert mov._record.seed == seed
        plain = cone_from_halfspaces(shape.rank, mov._record.vectors)
        assert mov.rays == plain.rays, s.describe()
        assert mov.facets == plain.facets, s.describe()
        seeded += bool(seed)
    # Every space of Picard rank 2 or more is seeded, stages included.
    assert seeded == 90


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
