"""End-to-end benchmark of the formcones command line.

    python3 perfbench/run.py --workload mov-json --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The load is a closed loop with one client: a batch user who
runs one command after another.  A pass is one fresh worker process that
imports ``formcones.cli`` (its set-up) and then calls ``formcones.cli.main``
for each command of the workload, in an order drawn from ``--seed``.
Passes repeat until ``--seconds`` have gone by, and every output is
checked (see ``workloads.check``).

With ``--trace 0`` the last line reports the end-to-end metrics, each a
median over passes: ``wall_s``, a pass's time (the sum of its commands'
``main`` times); ``cpu_s``, its user+sys time, for the worker and its pool
children; ``peak_rss_mb``, the worker's peak plus the largest peak of a
pool child; and ``setup_s``, over at least nine spawns, the time until
``formcones.cli`` is imported.  The three times are in reference seconds
(see ``gauge``); the summary before the last line prints the raw medians
too, and the high percentile of ``wall_s``.  The failure rate is
``failed`` out of ``attempted`` commands.  With ``--trace 1`` untraced and
traced passes alternate over the same command orders; the last line
reports the per-layer metrics of ``tracing.Tracer`` (medians over traced
passes, in raw seconds), the traced outputs must match the untraced ones
byte for byte (the times ``bench`` prints blanked), and ``trace.overhead``
compares the median gauged pass of each kind.

Lines before the last are for people: metadata, a summary with sample
counts and, when traced, the span table with self times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check, load_digests, stable_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 9

# Each end-to-end metric, its unit, and whether it is a time that the gauge
# scales to reference seconds.  A run reports the median over its samples.
END_TO_END = (("wall_s", "s", True), ("cpu_s", "s", True),
              ("peak_rss_mb", "MB", False), ("setup_s", "s", True))
# What gauge() takes on an idle host: a 2-vCPU Intel Xeon VM, Python 3.11.
REF_GAUGE_S = 0.125
# Span metrics (name ending in _s) are a public call's inclusive wall time
# per pass; the others are counts per pass.
PER_LAYER = (
    ("spaces.movable_cone_s", "s"), ("spaces.omit_one_hulls", "count"),
    ("cones.rays_s", "s"), ("cones.rays_out", "count"),
    ("cones.facets_s", "s"), ("cones.facets_out", "count"),
    ("cones.certificate_s", "s"), ("cones.convert_s", "s"),
    ("chambers.gkz_fan_s", "s"), ("chambers.sbl_merge_s", "s"),
    ("chambers.chambers_out", "count"), ("chambers.walls_out", "count"),
    ("refdata.load_s", "s"),
    ("reports.serialise_s", "s"), ("reports.bytes_out", "bytes"),
    ("verify.cones_s", "s"), ("verify.counts_s", "s"), ("verify.fans_s", "s"),
    ("verify.formulas_s", "s"), ("verify.checks", "count"),
    ("cli.self_s", "s"), ("trace.overhead", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def gauge() -> float:
    """Seconds the host takes now for a fixed piece of pure-Python work.

    The host is shared, and other tenants slow every process on it by up to
    three times, for seconds to minutes at a time.  The gauge is timed before
    and after each spawn, and the spawn's times are scaled by
    ``REF_GAUGE_S`` over the mean of the two: reference seconds, the time the
    spawn would take on the idle host.  The work is what the program's
    double-description pass does: dot products of small-integer tuples over
    a cache-sized and a larger set of rows, dict updates, bit masks and new
    tuples of combined rows.  It is part of the benchmark, so it never
    changes with the program.
    """
    t0 = time.perf_counter()
    rows = [tuple((i * 7919 + k * 104729) % 13 - 6 for k in range(12))
            for i in range(8000)]
    masks: dict[tuple[int, int], int] = {}
    pairs = [(a, b) for a in rows[:300] for b in rows[300:400]]
    pairs += [(rows[i * 7919 % 8000], rows[(i * 104729 + 5) % 8000])
              for i in range(20000)]
    for a, b in pairs:
        s = sum(p * q for p, q in zip(a, b))
        masks[a[0], s & 15] = masks.get((a[0], s & 15), 0) | 1 << (s & 63)
    wide = [tuple(x * 76543 + i for x in r) for i, r in enumerate(rows[:3000])]
    combined = [tuple(x * 3 - y * 2 for x, y in zip(wide[i * 7 % 3000],
                                                    wide[(i * 13 + 5) % 3000]))
                for i in range(8000)]
    return time.perf_counter() - t0


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FORMCONES_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env):
    """Start a worker and wait until it has imported the CLI."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().split(maxsplit=1)
    setup_s = time.perf_counter() - t0
    path = Path(ready[1].strip()) if len(ready) == 2 and ready[0] == "ready" else None
    if path is None or not path.is_relative_to(SRC):
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not import formcones from {SRC}: {ready}")
    return proc, setup_s


def setup_only(env) -> float:
    proc, setup_s = spawn(env)
    proc.communicate("", timeout=60)
    return setup_s


def run_pass(env, commands, trace: bool, deadline: float, digests) -> dict:
    proc, setup_s = spawn(env)
    job = json.dumps({"commands": commands, "trace": trace}) + "\n"
    try:
        out, _ = proc.communicate(job, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = ""
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return {"setup_s": setup_s, "failed": len(commands), "outputs": None,
                "errors": [f"worker exited with {proc.returncode}"]}
    res = json.loads(lines[-1])
    errors = []
    for argv, (_, rc, stdout, stderr) in zip(commands, res["commands"]):
        why = check(tuple(argv), rc, stdout, digests)
        if why:
            errors.append(f"{' '.join(argv)}: {why} {stderr.strip()[-300:]}")
    return {
        "setup_s": setup_s,
        "wall_s": sum(c[0] for c in res["commands"]),
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": (res["rss_kb"] + res["child_rss_kb"]) / 1024,
        "failed": len(errors),
        "errors": errors,
        "outputs": [c[2] for c in res["commands"]],
        "spans": res.get("spans"),
        "counts": res.get("counts"),
    }


def high_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return {"p": 100 * k // n, "value": sorted(values)[k - 1]}


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive and self seconds, and calls, in one pass."""
    table: dict[str, dict[str, float]] = {}
    child_s = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_s[parent] += end - start
    for i, (name, parent, start, end) in enumerate(spans):
        row = table.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += end - start - child_s[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor is None:
            row["total_s"] += end - start
    return table


def layer_metrics(traced, untraced) -> tuple[dict, dict]:
    tables = [span_table(p["spans"]) for p in traced]
    base = statistics.median(p["wall_s"] for p in traced)
    traced_s = statistics.median(p["wall_s"] * p["scale"] for p in traced)
    plain = statistics.median(p["wall_s"] * p["scale"] for p in untraced)
    names = sorted({name for t in tables for name in t})
    report = {
        "passes": len(traced),
        "base_pass_s": base,
        "spans": {},
        "counts": {},
        "overhead": {"traced_pass_s": traced_s, "untraced_pass_s": plain,
                     "ratio": (traced_s - plain) / plain},
    }
    for name in names:
        row = {k: statistics.median(t.get(name, {}).get(k, 0) for t in tables)
               for k in ("total_s", "self_s", "calls")}
        row["share_of_pass"] = row["self_s"] / base
        report["spans"][name] = row
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            value = report["overhead"]["ratio"]
        elif name == "cli.self_s":
            value = report["spans"].get("cli", {}).get("self_s", 0.0)
        elif unit == "s":
            value = report["spans"].get(name[:-2], {}).get("total_s", 0.0)
        else:
            value = statistics.median(p["counts"].get(name, 0) for p in traced)
            report["counts"][name] = value
        metrics[name] = {"value": value, "unit": unit}
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    if wl.max_threads > nproc():
        raise BenchError(f"workload {name} uses --threads {wl.max_threads} "
                         f"but only {nproc()} CPUs are available")
    digests = load_digests()
    env = worker_env()
    rng = random.Random(seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setup_only(env)  # compiles bytecode once, as an installed package has it
    gauges = [gauge()]

    def scale() -> float:
        """Reference seconds per second for the spawn just ended."""
        gauges.append(gauge())
        return 2 * REF_GAUGE_S / (gauges[-2] + gauges[-1])

    setups, untraced, traced = [], [], []
    attempted = failed = 0
    errors = []
    round_s = 0.0
    # Stop when another round would end nearer past --seconds than before it.
    while not untraced or (time.perf_counter() - start + round_s / 2 < seconds
                           and time.perf_counter() < deadline):
        round_start = time.perf_counter()
        order = [list(argv) for argv in wl.order(rng)]
        sides = [(False, untraced)] + ([(True, traced)] if trace else [])
        outputs = []
        for traced_side, passes in sides:
            p = run_pass(env, order, traced_side, deadline, digests)
            p["scale"] = scale()
            setups.append((p["setup_s"], p["scale"]))
            attempted += len(order)
            failed += p["failed"]
            errors += p["errors"]
            outputs.append(p["outputs"])
            if p["outputs"] is None:
                break
            passes.append(p)
        if None in outputs:
            break
        if trace:
            mismatched = [" ".join(a) for a, x, y in zip(order, *outputs)
                          if stable_output(tuple(a), x) != stable_output(tuple(a), y)]
            failed += len(mismatched)
            errors += [f"{cmd}: traced output differs" for cmd in mismatched]
        round_s = time.perf_counter() - round_start
    while len(setups) < MIN_SETUP_SAMPLES and time.perf_counter() < deadline:
        setups.append((setup_only(env), scale()))

    result = {"workload": name, "attempted": attempted, "failed": failed,
              "errors": errors, "passes": len(untraced)}
    if not untraced or (trace and not traced):
        result["metrics"] = {}
        return result
    if trace:
        result["metrics"], result["trace_table"] = layer_metrics(traced, untraced)
        return result
    # Per metric, its samples as (raw value, reference seconds per second).
    samples = {key: [(p[key], p["scale"]) for p in untraced] for key, _, _ in END_TO_END}
    samples["setup_s"] = setups
    result["values"] = {key: [x * k if gauged else x for x, k in samples[key]]
                        for key, _, gauged in END_TO_END}
    result["raw"] = {key: [x for x, _ in samples[key]] for key in samples}
    result["metrics"] = {key: {"value": statistics.median(result["values"][key]),
                               "unit": unit} for key, unit, _ in END_TO_END}
    return result


def summary(r: dict) -> str:
    lines = [f"workload {r['workload']}: {r['passes']} passes, "
             f"fail_rate {r['failed']}/{r['attempted']} commands"]
    lines += [f"  FAIL {e}" for e in r["errors"][:20]]
    if not r["metrics"]:
        return "\n".join(lines)
    if "trace_table" in r:
        t = r["trace_table"]
        lines.append(f"  span self time, share of the median traced pass "
                     f"({t['base_pass_s']:.4f} s over {t['passes']} passes):")
        for name, row in sorted(t["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:24} total {row['total_s']:10.4f} s  self "
                         f"{row['self_s']:10.4f} s  {100 * row['share_of_pass']:6.2f} %"
                         f"  calls {row['calls']:g}")
        o = t["overhead"]
        lines.append(f"  trace.overhead {o['ratio']:+.4f} (median traced pass "
                     f"{o['traced_pass_s']:.4f} s, untraced {o['untraced_pass_s']:.4f} s,"
                     f" reference seconds)")
        return "\n".join(lines)
    for key, unit, gauged in END_TO_END:
        values = r["raw"][key]
        note = (f" reference {unit}, raw median {statistics.median(values):.6f} {unit}"
                if gauged else f" {unit}")
        lines.append(f"  {key:12} {r['metrics'][key]['value']:12.6f}{note}, "
                     f"median of {len(values)}")
    high = high_percentile(r["values"]["wall_s"])
    lines.append("  wall_s high percentile: " + (
        f"p{high['p']} = {high['value']:.6f} reference s" if high
        else "none (needs more than 10 passes)"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "formcones" / "cli.py").is_file():
        print(f"error: no formcones source under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": nproc(), "python": platform.python_version(),
            "commit": git_commit(), "loadavg_1m": os.getloadavg()[0]}
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    for r in results:
        print(summary(r))
        if "trace_table" in r:
            print(json.dumps({"trace_table": {r["workload"]: r["trace_table"]}}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results
                   for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
