"""Command-line interface.

Each error class maps to one exit code through ``_EXIT_CODES``; the
README's paragraph on exit codes states the policy, and
:mod:`formcones.spaces` holds the Picard-rank bounds behind exit 3.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .chambers import gkz_fan, sbl_merge
from .cones import dd_convert
from .errors import DegenerateSpace, InternalError, NoReferenceData, RankUnsupported
from .formulas import (
    ambient_projective_dim,
    cox_generator_count,
    dim_cox,
    movable_ray_count,
)
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

# Each cone by name.  The builders are looked up when a command runs, so a
# rebinding of this module's names (as a tracer does) is seen.
_CONES = {
    "eff": lambda s: effective_cone(s),
    "nef": lambda s: nef_cone(s),
    "mov": lambda s: movable_cone(s),
    "mori": lambda s: mori_cone(s),
    "movcurves": lambda s: moving_curve_cone(s),
}

# The exit code of each error class, the first match winning: RouteMismatch
# is an InternalError.  ``main`` also maps a closed stdout to 141 and an
# interrupt to 130, the shell's codes for SIGPIPE and SIGINT.  Any other
# exception is a bug and keeps its traceback.
_EXIT_CODES = ((InternalError, 1), (DegenerateSpace, 3), (RankUnsupported, 3),
               (NoReferenceData, 4), (ValueError, 2))


def parse_n_range(text: str) -> range:
    """Either a single value "14" or an inclusive range "10..12"."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(f"--n {text!r} is neither a value like 14 nor a "
                         "range like 10..12") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


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


def cmd_cone(args) -> int:
    s = _space(args)
    t0 = time.perf_counter_ns()
    cone = _CONES[args.cone](s)
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
        fan = sbl_merge(fan)
    elapsed = time.perf_counter_ns() - t0
    if args.format == "json":
        doc = fan_report(fan, duration_ns=elapsed if args.timings else None)
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
    # Refuse a range that cannot finish before any work starts.  Whether the
    # format is valid and the Picard rank are monotone in n: the ends decide.
    ns = parse_n_range(args.n)
    for s in (_space(args, ns[0]), _space(args, ns[-1])):
        require_movable(s)
    records = []
    for n in ns:
        s = _space(args, n)
        expected = movable_ray_count(s)
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
        print("cones: " + " ".join(_CONES))
        print("verify suites: all " + " ".join(SUITES))
        print(f"bundled merged fans: {' '.join(bundled_fan_keys())}")
        return 0
    if args.n is None:
        raise ValueError("--n is required with --family")
    s = _space(args)
    # Refuses a Picard rank past the cone bound before the Cox count runs.
    fano = is_fano(s)
    lines = [f"space: {s.describe()}", f"picard rank: {s.picard_rank}",
             f"ambient projective dimension: {ambient_projective_dim(s)}",
             f"cox ring dimension: {dim_cox(s)}"]
    if s.stage is None:
        lines.append(f"cox ring generators: {cox_generator_count(s)}")
    lines.append(f"fano: {fano}")
    print("\n".join(lines))  # once every value is computed: a failure prints none
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcones",
        description="Cones of divisors and curves on spaces of complete "
                    "collineations and quadrics, in exact arithmetic.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cone", help="print a cone's extremal rays")
    _space_flags(p)
    p.add_argument("--cone", required=True, choices=_CONES)
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


# Built once per process, for callers that run many command lines in one.
# The handlers bound by set_defaults look their callees up when they run.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # cone, verify and bench keep --threads for existing command lines.
        # Every computation runs serially, so the count is only validated.
        if getattr(args, "threads", 1) < 1:
            raise ValueError("thread count must be at least 1")
        code = args.func(args)
        # Output short of a full buffer is written here, not at exit, so a
        # closed pipe is seen by the handler below.
        sys.stdout.flush()
        return code
    except tuple(cls for cls, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(e, cls))
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  What is left in its buffer
        # goes to the null device, so the flush at exit cannot fail again,
        # and the exit code is the shell's for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
