"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and is named so that
``pytest -v`` prints one pass/fail line per criterion.  Expected values
are frozen literals; nothing here recomputes an expectation through the
code under test.
"""

import subprocess
import sys
import time
from math import comb

from formcones.chambers import gkz_fan, sbl_merge
from formcones.cli import main
from formcones.cones import cone_from_halfspaces, cone_from_rays
from formcones.formulas import (
    cox_generator_count,
    dim_cox,
    dim_section_space,
    plucker_relation_count,
    weyl_dim,
)
from formcones.spaces import (
    CurveClass,
    anticanonical_class,
    collineations,
    is_fano,
    mori_cone,
    movable_cone,
    moving_curve_cone,
    pairing,
    quadrics,
)
from formcones.verify import check_cone_case, fuzz_cases

X3_MOV_RAYS = ((1, 0, 0), (2, -1, 0), (3, -2, -1), (6, -3, -2))
X4_MOV_RAYS = (
    (1, 0, 0, 0),
    (2, -1, 0, 0),
    (3, -2, -1, 0),
    (4, -3, -2, -1),
    (8, -4, -3, -2),
    (9, -4, -3, 0),
    (12, -8, -6, -3),
    (16, -11, -6, -4),
)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_01_movable_cones_of_small_square_spaces():
    mov3, t3 = timed(movable_cone, collineations(3))
    assert set(mov3.rays) == set(X3_MOV_RAYS)
    assert mov3.rays == tuple(sorted(X3_MOV_RAYS))
    assert t3 < 1.0
    mov4, t4 = timed(movable_cone, collineations(4))
    assert set(mov4.rays) == set(X4_MOV_RAYS)
    assert mov4.rays == tuple(sorted(X4_MOV_RAYS))
    assert t4 < 1.0


def test_criterion_02_movable_ray_count_laws():
    start = time.perf_counter()
    for n in range(2, 11):
        assert len(movable_cone(collineations(n)).rays) == 2 ** (n - 1)
        assert len(movable_cone(quadrics(n)).rays) == 2 ** (n - 1)
    for n in range(1, 9):
        assert len(movable_cone(collineations(n, n + 1)).rays) == 2 ** (n - 1) + 1
    assert time.perf_counter() - start < 60.0


def test_criterion_03_bench_records_large_quadric_ray_counts(capsys):
    rc = main(["bench", "--family", "qn", "--n", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "512" in out and "MISMATCH" not in out
    rc = main(["bench", "--family", "qn", "--n", "13..14"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4096" in out and "8192" in out
    assert "MISMATCH" not in out
    assert "s " in out or "s\n" in out


def test_criterion_04_chamber_decomposition_counts():
    def fan_of(s):
        f, t = timed(gkz_fan, s)
        assert t < 5.0
        return f

    assert len(fan_of(collineations(3)).chambers) == 9
    assert len(fan_of(quadrics(3)).chambers) == 9
    for m in (3, 4, 5):
        assert len(fan_of(collineations(2, m)).chambers) == 5
    assert len(fan_of(collineations(2)).chambers) == 3
    assert len(fan_of(quadrics(2)).chambers) == 3
    for m in (2, 3, 4):
        assert len(fan_of(collineations(1, m)).chambers) == 2
    for n in range(2, 7):
        assert len(fan_of(collineations(n, stage=1)).chambers) == n + 1
        assert len(fan_of(quadrics(n, stage=1)).chambers) == n + 1

    def merged(s):
        f, t = timed(lambda: sbl_merge(gkz_fan(s)))
        assert t < 5.0
        return f

    assert len(merged(collineations(3)).chambers) == 8
    assert len(merged(quadrics(3)).chambers) == 8
    for m in (3, 4, 5):
        assert len(merged(collineations(2, m)).chambers) == 4
    assert len(merged(collineations(2)).chambers) == 3
    assert len(merged(quadrics(2)).chambers) == 3


def chain_curve_classes(rho):
    classes = []
    for i in range(rho):
        coords = [0] * rho
        for offset, coeff in ((0, 1), (1, -2), (2, 1)):
            j = i + offset
            if j < rho:
                coords[j] += coeff
        classes.append(tuple(coords))
    return classes


def moving_curve_construction(n, rho):
    halves = [
        tuple(1 if j == i else 0 for j in range(rho)) for i in range(1, rho)
    ]
    halves.append((n + 1,) + tuple(-(n - i + 1) for i in range(1, rho)))
    cone = cone_from_halfspaces(rho, halves)
    mapped = [v[0:1] + tuple(-x for x in v[1:]) for v in cone.rays]
    return cone_from_rays(rho, mapped)


def test_criterion_05_curve_cones_match_independent_constructions():
    for n in range(1, 7):
        for m in range(n, 7):
            if n == m == 1:
                continue
            s = collineations(n, m)
            rho = s.picard_rank
            assert mori_cone(s) == cone_from_rays(rho, chain_curve_classes(rho))
            assert moving_curve_cone(s) == moving_curve_construction(n, rho)


def test_criterion_06_fano_checks_and_intersection_number():
    for n in range(1, 7):
        for m in range(n, 7):
            assert is_fano(collineations(n, m))
    for n in range(2, 7):
        assert is_fano(quadrics(n))
    assert is_fano(collineations(3, stage=1)) is False
    assert is_fano(collineations(2, stage=1)) is True
    s = collineations(3)
    assert pairing(CurveClass((1, -2, 1)), anticanonical_class(s)) == 3


def test_criterion_07_closed_form_count_identities():
    start = time.perf_counter()
    for n in range(1, 13):
        for k in range(n):
            assert weyl_dim(n, k) == dim_section_space(n, k)
    for n in range(2, 13):
        assert plucker_relation_count(n, 1) == comb(n + 1, 4)
    assert cox_generator_count(quadrics(2)) == 14
    for m in range(2, 7):
        assert dim_cox(collineations(1, m)) == 2 * m + 3
    assert dim_cox(quadrics(2)) == 7
    assert dim_cox(collineations(2)) == 10
    assert time.perf_counter() - start < 1.0


def test_criterion_08_movable_shortcut_matches_brute_force():
    specs = []
    for n in range(2, 6):
        specs.append(collineations(n))
        specs.append(quadrics(n))
    for n in range(1, 6):
        for m in range(n + 1, 7):
            specs.append(collineations(n, m))
    for s in specs:
        fast = movable_cone(s)
        slow = movable_cone(s, brute_force=True)
        assert fast == slow
        assert fast.rays == slow.rays


def test_criterion_09_random_cone_invariants():
    start = time.perf_counter()
    cases = fuzz_cases()
    assert len(cases) == 200
    assert all(rank <= 5 for rank, _ in cases)
    failures = [f for f in (check_cone_case(r, g) for r, g in cases) if f]
    assert failures == []
    assert time.perf_counter() - start < 30.0


def test_criterion_10_verify_output_is_thread_independent():
    def run(threads):
        return subprocess.run(
            [sys.executable, "-m", "formcones.cli", "verify", "--suite", "all",
             "--threads", str(threads)],
            capture_output=True, check=False,
        )

    first = run(1)
    second = run(3)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"checks passed\n")
