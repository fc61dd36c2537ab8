import random

import pytest

import formcones.chambers as chambers_module
from formcones.chambers import (
    Chamber,
    ChamberFan,
    Wall,
    adjacency_graph,
    gkz_fan,
    locate,
    sbl_merge,
)
from formcones.errors import (
    BoundaryPoint,
    DegenerateSpace,
    DimensionMismatch,
    InternalError,
    NoReferenceData,
    OutsideEffective,
    RankUnsupported,
)
from formcones.linalg import dot, rank
from formcones.refdata import bundled_fan_keys, bundled_spaces, space_key
from formcones.reports import fan_report
from formcones.spaces import DivisorClass, collineations, effective_cone, quadrics

X3_CHAMBER_RAYS = (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (2, -1, 0)),
    ((0, 0, 1), (2, -1, 0), (3, -2, -1)),
    ((0, 0, 1), (3, -2, -1), (4, -3, -2)),
    ((0, 1, 0), (1, 0, 0), (6, -3, -2)),
    ((0, 1, 0), (4, -3, -2), (6, -3, -2)),
    ((1, 0, 0), (2, -1, 0), (3, -2, -1)),
    ((1, 0, 0), (3, -2, -1), (6, -3, -2)),
    ((3, -2, -1), (4, -3, -2), (6, -3, -2)),
)


def test_gkz_chamber_counts():
    assert len(gkz_fan(collineations(3)).chambers) == 9
    assert len(gkz_fan(quadrics(3)).chambers) == 9
    for m in (3, 4, 5):
        assert len(gkz_fan(collineations(2, m)).chambers) == 5
    assert len(gkz_fan(collineations(2)).chambers) == 3
    assert len(gkz_fan(quadrics(2)).chambers) == 3
    for m in (2, 3, 4):
        assert len(gkz_fan(collineations(1, m)).chambers) == 2
    for n in range(2, 7):
        assert len(gkz_fan(collineations(n, stage=1)).chambers) == n + 1
        assert len(gkz_fan(quadrics(n, stage=1)).chambers) == n + 1
    # Second-stage fans: regression values, not numbers from the paper.
    for n, chambers, walls in ((3, 9, 12), (4, 14, 20), (5, 20, 30),
                               (6, 27, 42), (7, 35, 56)):
        for fam in (collineations, quadrics):
            f = gkz_fan(fam(n, stage=2))
            assert (len(f.chambers), len(f.walls)) == (chambers, walls)


def test_gkz_x3_chambers_pinned():
    f = gkz_fan(collineations(3))
    assert tuple(c.rays for c in f.chambers) == X3_CHAMBER_RAYS
    assert f.chambers[6].label == "Nef"
    assert [c.label for c in f.chambers].count("Nef") == 1
    assert len(f.walls) == 12
    assert f.kind == "gkz"


def test_gkz_quadrics_match_collineations():
    q = gkz_fan(quadrics(3))
    x = gkz_fan(collineations(3))
    assert q.chambers == x.chambers
    assert q.walls == x.walls
    assert q.space == quadrics(3)


def test_walls_separate_their_chambers():
    for s in (collineations(3), collineations(2, 4), collineations(2)):
        f = gkz_fan(s)
        rho = s.picard_rank
        for w in f.walls:
            assert 0 <= w.first < w.second < len(f.chambers)
            a = f.chambers[w.first]
            b = f.chambers[w.second]
            assert dot(w.normal, a.sample) * dot(w.normal, b.sample) < 0
            shared = [
                r for r in a.rays if r in b.rays and dot(w.normal, r) == 0
            ]
            assert rank(shared) == rho - 1


def test_chamber_samples_locate_to_their_own_index():
    for s in (collineations(3), quadrics(2), collineations(2, 5),
              collineations(4, stage=1)):
        f = gkz_fan(s)
        for i, ch in enumerate(f.chambers):
            assert locate(f, ch.sample) == i


def test_locate_error_paths():
    f = gkz_fan(collineations(3))
    with pytest.raises(DimensionMismatch):
        locate(f, (1, 0))
    with pytest.raises(OutsideEffective):
        locate(f, (1, -2, 0))
    with pytest.raises(BoundaryPoint):
        locate(f, (1, 0, 1))
    with pytest.raises(BoundaryPoint):
        locate(f, (1, 0, 0))
    assert locate(f, DivisorClass((1, 1, 1))) == 0


def test_locate_partitions_effective_points():
    f = gkz_fan(collineations(3))
    eff = effective_cone(collineations(3)).rays
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        coeffs = [rng.randint(0, 6) for _ in eff]
        if not any(coeffs):
            continue
        point = tuple(
            sum(c * r[i] for c, r in zip(coeffs, eff)) for i in range(3)
        )
        try:
            seen.add(locate(f, point))
        except BoundaryPoint:
            pass
    assert seen <= set(range(len(f.chambers)))
    assert len(seen) > 1


def test_gkz_rejects_unsupported_ranks():
    with pytest.raises(DegenerateSpace):
        gkz_fan(collineations(1))
    with pytest.raises(RankUnsupported):
        gkz_fan(collineations(4))
    with pytest.raises(RankUnsupported):
        gkz_fan(quadrics(5))


@pytest.mark.parametrize("s", [collineations(2), collineations(3)])
def test_walk_certificate_rejects_a_one_way_crossing(monkeypatch, s):
    # Probing along the facet normal instead of across it lands back in
    # the chamber the probe started from, so no wall is crossed both ways.
    monkeypatch.setattr(chambers_module, "negate", lambda v: v)
    with pytest.raises(InternalError, match="not back"):
        gkz_fan(s)


def test_gkz_fan_is_deterministic():
    a = gkz_fan(collineations(2, 4))
    b = gkz_fan(collineations(2, 4))
    assert a == b
    assert a.chambers == b.chambers and a.walls == b.walls


def test_adjacency_graph_is_the_wall_list():
    f = gkz_fan(collineations(2))
    assert adjacency_graph(f) == f.walls
    assert all(isinstance(w, Wall) for w in f.walls)


def test_sbl_merge_x3():
    s = collineations(3)
    f = gkz_fan(s)
    m = sbl_merge(f, s)
    assert m.kind == "sbl"
    assert [c.label for c in m.chambers] == [
        "E_1∪E_2", "E_2", "E_2∪E_3", "E_1", "E_1∪E_3", "∅", "small", "E_3",
    ]
    assert len(m.chambers) == 8
    assert len(m.walls) == 11
    assert m.notes == ("coincides with the Mori chamber decomposition",)
    merged = m.chambers[1]
    assert merged.rays == ((0, 0, 1), (1, 0, 0), (2, -1, 0), (3, -2, -1))
    assert len(merged.pieces) == 2
    assert merged.erased_walls == ((1, 2, 0),)
    assert locate(m, (2, -1, 1)) == 1
    with pytest.raises(BoundaryPoint):
        locate(m, (1, 0, 1))
    plain = m.chambers[5]
    assert plain.pieces == () or plain.pieces == (plain.rays,)
    assert list(plain.convex_pieces()) == [plain.rays]


def test_sbl_merge_erased_wall_is_interior():
    s = collineations(3)
    m = sbl_merge(gkz_fan(s), s)
    on_wall = (2, -1, 1)
    assert dot((1, 2, 0), on_wall) == 0
    assert locate(m, on_wall) == 1


def test_sbl_merge_other_spaces():
    for m in (3, 4, 5):
        s = collineations(2, m)
        fan = sbl_merge(gkz_fan(s), s)
        assert [c.label for c in fan.chambers] == ["E_1∪E_2", "E_2", "E_1", "∅"]
    for fam in (collineations, quadrics):
        s = fam(2)
        fan = sbl_merge(gkz_fan(s), s)
        assert [c.label for c in fan.chambers] == ["E_1", "∅", "E_2"]
    s = quadrics(4, stage=1)
    fan = sbl_merge(gkz_fan(s), s)
    assert [c.label for c in fan.chambers] == ["E_1", "∅", "sec_2", "sec_3", "sec_4"]
    s = collineations(1, 5)
    fan = sbl_merge(gkz_fan(s), s)
    assert [c.label for c in fan.chambers] == ["E_1", "∅"]
    # Spaces that share their key's table merge to the representative's fan.
    representative = dict(bundled_spaces())
    shared = [quadrics(n, stage=1) for n in range(2, 11)]
    shared += [collineations(n, n + 2, stage=1) for n in range(2, 5)]
    shared += [collineations(1, 4), collineations(1, 7), collineations(2, 5)]
    for s in shared:
        r = representative[space_key(s)]
        assert r != s
        got = fan_report(s, sbl_merge(gkz_fan(s), s))["fan"]
        assert got == fan_report(r, sbl_merge(gkz_fan(r), r))["fan"], s.describe()


def test_sbl_merge_rejects_foreign_fan():
    f = gkz_fan(collineations(3))
    with pytest.raises(ValueError):
        sbl_merge(f, quadrics(3))


def test_sbl_merge_rejects_a_fan_that_differs_from_the_reference():
    s = collineations(3)
    f = gkz_fan(s)
    dropped = ChamberFan(s, f.chambers[1:], f.walls, kind=f.kind)
    with pytest.raises(InternalError, match="does not match the computed fan"):
        sbl_merge(dropped, s)


def test_sbl_merge_without_reference_data():
    s = collineations(5, stage=2)
    f = gkz_fan(s)
    with pytest.raises(NoReferenceData):
        sbl_merge(f, s)


def test_bundled_keys():
    keys = set(bundled_fan_keys())
    assert keys == {
        "collineations-1-wide", "collineations-2-eq", "collineations-2-wide",
        "collineations-3-eq", "quadrics-2", "quadrics-3",
    } | {f"stage1-{n}" for n in range(2, 11)}


def test_fan_and_chamber_are_plain_records():
    f = gkz_fan(collineations(2))
    assert isinstance(f, ChamberFan)
    assert all(isinstance(c, Chamber) for c in f.chambers)
    assert f.space == collineations(2)

