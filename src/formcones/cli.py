"""Command-line interface.

Exit codes: 0 success, 1 verification or count failure, or a failed
internal self-check such as a computed fan that disagrees with the
bundled merge table, 2 usage error,
3 unsupported computation (degenerate space, or a Picard rank
above 3 for chambers or above 16 for movable cones),
4 missing reference data.
"""

from __future__ import annotations

import argparse
import sys
import time

from .chambers import gkz_fan, sbl_merge
from .cones import dd_convert
from .errors import DegenerateSpace, InternalError, NoReferenceData, RankUnsupported
from .formulas import ambient_projective_dim, cox_generator_count, dim_cox
from .refdata import bundled_fan_keys
from .reports import (
    VERSION,
    BenchRecord,
    bench_table,
    canonical_json,
    cone_report,
    fan_report,
    format_ns,
)
from .spaces import (
    SpaceSpec,
    collineations,
    effective_cone,
    is_fano,
    mori_cone,
    movable_cone,
    moving_curve_cone,
    nef_cone,
    quadrics,
    require_movable,
)
from .verify import SUITES, render, run_suite

CONE_NAMES = ("eff", "nef", "mov", "mori", "movcurves")


def parse_n_range(text: str) -> list[int]:
    """Either a single value "14" or an inclusive range "10..12"."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _space(args, n: int | None = None) -> SpaceSpec:
    """The space named by the flags, with ``n`` in place of ``--n`` if given."""
    n = args.n if n is None else n
    if args.family == "xnm":
        if args.m is None:
            raise ValueError("family xnm requires --m")
        return collineations(n, args.m, stage=args.stage)
    if args.m is not None:
        raise ValueError(f"--m does not apply to family {args.family}")
    if args.family == "xn":
        return collineations(n, stage=args.stage)
    return quadrics(n, stage=args.stage)


def _space_flags(sub):
    sub.add_argument("--family", required=True, choices=("xnm", "xn", "qn"))
    sub.add_argument("--n", required=True, type=int)
    sub.add_argument("--m", type=int)
    sub.add_argument("--stage", type=int)


def _fmt_vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _build_cone(s: SpaceSpec, name: str):
    if name == "eff":
        return effective_cone(s)
    if name == "nef":
        return nef_cone(s)
    if name == "mov":
        return movable_cone(s)
    if name == "mori":
        return mori_cone(s)
    return moving_curve_cone(s)


def cmd_cone(args) -> int:
    s = _space(args)
    t0 = time.perf_counter_ns()
    cone = _build_cone(s, args.cone)
    dd_convert(cone)
    elapsed = time.perf_counter_ns() - t0
    if args.format == "json":
        doc = cone_report(s, args.cone, cone,
                          duration_ns=elapsed if args.timings else None)
        print(canonical_json(doc))
    else:
        print(f"{args.cone} of {s.describe()}: {len(cone.rays)} rays")
        for r in cone.rays:
            print(" ".join(str(x) for x in r))
        if args.timings:
            print(f"time: {format_ns(elapsed)}")
    return 0


def cmd_chambers(args) -> int:
    s = _space(args)
    t0 = time.perf_counter_ns()
    fan = gkz_fan(s)
    if args.sbl:
        fan = sbl_merge(fan, s)
    elapsed = time.perf_counter_ns() - t0
    if args.format == "json":
        doc = fan_report(s, fan, duration_ns=elapsed if args.timings else None)
        print(canonical_json(doc))
        return 0
    print(f"{fan.kind} fan of {s.describe()}: {len(fan.chambers)} chambers, "
          f"{len(fan.walls)} walls")
    for note in fan.notes:
        print(f"note: {note}")
    for i, ch in enumerate(fan.chambers):
        rays = " ".join(_fmt_vec(r) for r in ch.rays)
        print(f"chamber {i}: label={ch.label or '-'} "
              f"sample={_fmt_vec(ch.sample)} rays={rays}")
        if ch.pieces:
            pieces = "; ".join(" ".join(_fmt_vec(r) for r in p)
                               for p in ch.pieces)
            erased = " ".join(_fmt_vec(n) for n in ch.erased_walls)
            print(f"  pieces: {pieces}")
            print(f"  erased walls: {erased}")
    for w in fan.walls:
        print(f"wall {w.first}-{w.second}: normal={_fmt_vec(w.normal)}")
    if args.timings:
        print(f"time: {format_ns(elapsed)}")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    print(render(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_bench(args) -> int:
    # Build and check every space of the range before timing the first, so
    # a range that cannot finish is refused before any work starts.
    spaces = [_space(args, n) for n in parse_n_range(args.n)]
    for s in spaces:
        require_movable(s)
    records = []
    for s in spaces:
        expected = 2 ** (s.n - 1) + (1 if s.n < s.m else 0)
        t0 = time.perf_counter_ns()
        # Reading the rays runs the double-description pass, so the clock
        # stops after it.
        measured = len(movable_cone(s).rays)
        elapsed = time.perf_counter_ns() - t0
        records.append(BenchRecord(
            space=s.describe(), expected=expected, measured=measured,
            duration_ns=elapsed))
    print(bench_table(records))
    return 0 if all(r.ok for r in records) else 1


def cmd_info(args) -> int:
    if args.family is None:
        for flag in ("n", "m", "stage"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} requires --family")
        print(f"formcones {VERSION}")
        print("families: xnm (wide collineations), xn (square collineations), "
              "qn (quadrics)")
        print("cones: " + " ".join(CONE_NAMES))
        print("verify suites: all " + " ".join(SUITES))
        print(f"bundled merged fans: {' '.join(bundled_fan_keys())}")
        return 0
    if args.n is None:
        raise ValueError("--n is required with --family")
    s = _space(args)
    print(f"space: {s.describe()}")
    print(f"picard rank: {s.picard_rank}")
    print(f"ambient projective dimension: {ambient_projective_dim(s)}")
    print(f"cox ring dimension: {dim_cox(s)}")
    if s.stage is None:
        print(f"cox ring generators: {cox_generator_count(s)}")
    print(f"fano: {is_fano(s)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcones",
        description="Cones of divisors and curves on spaces of complete "
                    "collineations and quadrics, in exact arithmetic.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cone", help="print a cone's extremal rays")
    _space_flags(p)
    p.add_argument("--cone", required=True, choices=CONE_NAMES)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_cone)

    p = subs.add_parser("chambers", help="print the chamber decomposition "
                                         "of the effective cone")
    _space_flags(p)
    p.add_argument("--sbl", action="store_true",
                   help="merge chambers sharing a stable base locus")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_chambers)

    p = subs.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("bench", help="time movable-cone computations "
                                      "against expected ray counts")
    p.add_argument("--family", required=True, choices=("xnm", "xn", "qn"))
    p.add_argument("--n", required=True,
                   help='single value "14" or range "10..12"')
    p.add_argument("--m", type=int)
    p.add_argument("--threads", type=int, default=1)
    # bench times whole spaces only, so _space sees no --stage.
    p.set_defaults(func=cmd_bench, stage=None)

    p = subs.add_parser("info", help="tool facts, or facts about one space")
    p.add_argument("--family", choices=("xnm", "xn", "qn"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--stage", type=int)
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # cone, verify and bench keep --threads for existing command lines.
        # Every computation runs serially, so the count is only validated.
        if getattr(args, "threads", 1) < 1:
            raise ValueError("thread count must be at least 1")
        return args.func(args)
    except InternalError as e:  # a failed self-check
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DegenerateSpace, RankUnsupported) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NoReferenceData as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
