"""One benchmark pass in a fresh process.

Protocol on stdin/stdout: the worker imports ``formcones.cli`` and writes
``ready <path of formcones>``; that is its set-up.  It then reads one JSON
job ``{"commands": [[argv...], ...], "trace": bool}`` and writes one JSON
result line.  Closing stdin without a job ends the worker after set-up.

The result holds, per command, ``[seconds, exit code, stdout, stderr]``;
the CPU time and peak resident set of the job, for this process and its
``multiprocessing`` children; and with ``trace`` the spans and counts of
:class:`tracing.Tracer`.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import formcones
import formcones.cli as cli


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` of the process itself will not do on Linux: ``exec`` keeps
    the peak of the process that spawned the worker.  The peak of the
    memory map, ``VmHWM``, starts afresh with the worker.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_command(argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli", cli.main, argv)
    except SystemExit as e:  # argparse rejects a command line this way
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed pass
        rc = "exception"
        err.write(traceback.format_exc())
    return [time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()]


def main() -> int:
    real_out = sys.stdout
    print("ready", formcones.__file__, file=real_out, flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    commands = [run_command(argv, tracer) for argv in job["commands"]]
    result = {
        "commands": commands,
        "cpu_s": _cpu_s() - cpu0,
        "rss_kb": _peak_rss_kb(),
        "child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    real_out.write(json.dumps(result) + "\n")
    real_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
