"""Runnable invariant suites: engine fuzz, count laws, fan counts, formulas.

Every check is deterministic: fixed seed, sorted names, no timing data in
the rendered output, so two runs produce identical bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .chambers import gkz_fan, locate, sbl_merge
from .cones import (
    cone_from_halfspaces,
    cone_from_rays,
    dd_convert,
    dual,
    extremal_rays,
)
from .errors import FormconesError, InternalError
from .formulas import (
    cox_generator_count,
    dim_cox,
    dim_section_space,
    plucker_relation_count,
    weyl_dim,
)
from .refdata import bundled_spaces, load_sbl_fixture
from .spaces import collineations, movable_cone, quadrics

FUZZ_SEED = 20260822
FUZZ_COUNT = 200

SUITES = ("cones", "counts", "fans", "formulas")

__all__ = [
    "FUZZ_SEED",
    "FUZZ_COUNT",
    "SUITES",
    "CheckResult",
    "fuzz_cases",
    "check_cone_case",
    "run_suite",
    "render",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def fuzz_cases(seed: int = FUZZ_SEED, count: int = FUZZ_COUNT) -> list:
    """Deterministic random cone specs, shared with the test suite."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        rank = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 3))
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            cases.append((rank, tuple(gens)))
    return cases


def check_cone_case(rank: int, gens: tuple) -> str:
    """Empty string when all engine properties hold, else a description."""
    c = cone_from_rays(rank, gens)
    dd_convert(c)
    if dual(dual(c)) != c:
        return "dual involution failed"
    for g in gens:
        if not c.contains(g):
            return f"generator {g} violates a computed halfspace"
    if cone_from_rays(rank, c.rays + tuple(gens)) != c:
        return "canonical rays do not regenerate the cone"
    if cone_from_halfspaces(rank, c.facets) != c:
        return "canonical facets do not regenerate the cone"
    if c.is_pointed:
        try:
            extremal_rays(c, certify=True)
        except InternalError as e:
            return f"extremality certificate failed: {e}"
    return ""


# hand-checked conversions: generators, canonical rays, canonical facets
_DUALITY_ORACLES = (
    ("simplicial-3", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
     ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
     ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    ("halfplane-2", 2, ((1, 0), (-1, 0), (0, 1)),
     ((-1, 0), (0, 1), (1, 0)),
     ((0, 1),)),
    ("full-2", 2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
     ((-1, 0), (0, -1), (0, 1), (1, 0)),
     ()),
    ("skew-2", 2, ((1, 2), (2, 1)),
     ((1, 2), (2, 1)),
     ((-1, 2), (2, -1))),
    ("pyramid-3", 3, ((1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)),
     ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)),
     ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))),
    ("line-3", 3, ((1, 1, 1), (-1, -1, -1)),
     ((-1, -1, -1), (1, 1, 1)),
     ((-1, 0, 1), (0, -1, 1), (0, 1, -1), (1, 0, -1))),
    ("ray-3", 3, ((2, 4, 6),),
     ((1, 2, 3),),
     ((-3, 0, 1), (0, -3, 2), (0, 0, 1), (0, 3, -2), (3, 0, -1))),
)


def _suite_cones() -> list[CheckResult]:
    out = []
    for name, rank, gens, rays, facets in _DUALITY_ORACLES:
        c = cone_from_rays(rank, gens)
        dd_convert(c)
        out.append(CheckResult(
            f"cones.oracle.{name}",
            c.rays == rays and c.facets == facets,
            f"expected {rays} / {facets}, got {c.rays} / {c.facets}",
        ))
    failures = []
    for i, (rank, gens) in enumerate(fuzz_cases()):
        msg = check_cone_case(rank, gens)
        if msg:
            failures.append(f"case {i} (rank {rank}, {gens}): {msg}")
    out.append(CheckResult(
        f"cones.fuzz-{FUZZ_COUNT}", not failures, "; ".join(failures[:3])))
    return out


def _suite_counts() -> list[CheckResult]:
    out = []
    for n in range(2, 11):
        for label, s in ((f"collineations-{n:02d}", collineations(n)),
                         (f"quadrics-{n:02d}", quadrics(n))):
            got = len(movable_cone(s).rays)
            want = 2 ** (n - 1)
            out.append(CheckResult(f"counts.{label}", got == want,
                                   f"expected {want} rays, got {got}"))
    for n in range(2, 9):
        got = len(movable_cone(collineations(n, n + 1)).rays)
        want = 2 ** (n - 1) + 1
        out.append(CheckResult(f"counts.collineations-{n:02d}-{n + 1:02d}",
                               got == want, f"expected {want} rays, got {got}"))
    return out


def _suite_fans() -> list[CheckResult]:
    out = []
    for key, s in bundled_spaces():
        try:
            table = load_sbl_fixture(s)
            fan = gkz_fan(s)
            out.append(CheckResult(
                f"fans.{key}.gkz-count",
                len(fan.chambers) == table.gkz_chamber_count,
                f"expected {table.gkz_chamber_count}, got {len(fan.chambers)}"))
            merged = sbl_merge(fan, s)
            # One chamber per stable base locus: a repeated label is a
            # missed merge.
            labels = {ch.label for ch in merged.chambers}
            out.append(CheckResult(
                f"fans.{key}.sbl-count",
                len(labels) == len(merged.chambers),
                f"{len(merged.chambers)} chambers carry {len(labels)} labels"))
            bad = []
            for i, ch in enumerate(merged.chambers):
                try:
                    where = locate(merged, ch.sample)
                except FormconesError:
                    where = -1
                if where != i:
                    bad.append(i)
            out.append(CheckResult(
                f"fans.{key}.samples", not bad,
                f"samples of chambers {bad} failed to locate"))
        except FormconesError as e:
            out.append(CheckResult(f"fans.{key}", False, str(e)))
    return out


def _suite_formulas() -> list[CheckResult]:
    out = []
    for n in range(1, 13):
        bad = [k for k in range(n) if weyl_dim(n, k) != dim_section_space(n, k)]
        out.append(CheckResult(f"formulas.weyl-{n:02d}", not bad,
                               f"mismatch at k={bad}"))
    bad = [n for n in range(2, 13)
           if plucker_relation_count(n, 1) != comb(n + 1, 4)]
    out.append(CheckResult("formulas.plucker", not bad, f"mismatch at n={bad}"))
    got = cox_generator_count(quadrics(2))
    out.append(CheckResult("formulas.cox-generators-quadrics-2",
                           got == 14, f"got {got}"))
    got = cox_generator_count(collineations(3))
    out.append(CheckResult("formulas.cox-generators-collineations-3",
                           got == 71, f"got {got}"))
    triples = [(f"collineations(1,{m})", dim_cox(collineations(1, m)), 2 * m + 3)
               for m in range(2, 7)]
    triples.append(("quadrics(2)", dim_cox(quadrics(2)), 7))
    triples.append(("collineations(2)", dim_cox(collineations(2)), 10))
    bad = [t for t in triples if t[1] != t[2]]
    out.append(CheckResult("formulas.dim-cox", not bad, f"mismatches {bad}"))
    return out


def run_suite(suite: str) -> list[CheckResult]:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from all, "
                         + ", ".join(SUITES))
    out: list[CheckResult] = []
    if suite in ("all", "cones"):
        out += sorted(_suite_cones(), key=lambda r: r.name)
    if suite in ("all", "counts"):
        out += sorted(_suite_counts(), key=lambda r: r.name)
    if suite in ("all", "fans"):
        out += sorted(_suite_fans(), key=lambda r: r.name)
    if suite in ("all", "formulas"):
        out += sorted(_suite_formulas(), key=lambda r: r.name)
    return out


def render(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        line = f"{'ok  ' if r.ok else 'FAIL'} {r.name}"
        if not r.ok and r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
