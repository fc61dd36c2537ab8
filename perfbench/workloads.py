"""The benchmark's workloads and the checks on every command's output.

Each workload is a fixed list of ``formcones`` command lines.  One pass runs
the whole list in one fresh process, so every pass starts with cold
``lru_cache``s, as a user of the command line does.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# The 15 spaces of the bundled merged-fan fixtures, as CLI space flags.
FIXTURE_SPACES = (
    "--family xnm --n 1 --m 2",
    "--family xn --n 2",
    "--family xnm --n 2 --m 3",
    "--family xn --n 3",
    "--family qn --n 2",
    "--family qn --n 3",
) + tuple(f"--family xn --n {n} --stage 1" for n in range(2, 11))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]

    def order(self, rng: random.Random) -> list[tuple[str, ...]]:
        """The commands of one pass, permuted by the workload seed.

        The order decides which ``lru_cache`` fills first, so it is an
        input of the pass.
        """
        cmds = list(self.commands)
        rng.shuffle(cmds)
        return cmds

    @property
    def max_threads(self) -> int:
        return max((int(c[c.index("--threads") + 1])
                    for c in self.commands if "--threads" in c), default=1)


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _fans_verify() -> tuple[tuple[str, ...], ...]:
    cmds = [_argv("verify --suite all --threads 2")]
    cmds += [_argv(f"chambers {sp} --sbl --format json") for sp in FIXTURE_SPACES]
    for family in ("qn", "xn"):
        for n in (3, 8, 14):
            for cone in ("eff", "nef", "mori", "movcurves"):
                cmds.append(_argv(f"cone --family {family} --n {n} --cone {cone} "
                                  "--format json --threads 1"))
            cmds.append(_argv(f"info --family {family} --n {n}"))
    return tuple(cmds)


WORKLOADS = {w.name: w for w in (
    Workload(
        "mov-rays",
        "bench qn 11..12: the final pass's pair loop for the rays is nearly all "
        "of it; no facets, no Pool, no JSON",
        (_argv("bench --family qn --n 11..12 --threads 1"),),
    ),
    Workload(
        "mov-json",
        "cone mov as JSON, qn 7..9 and xnm 7..8: the second pass for facets "
        "dominates; covers serialisation",
        tuple(_argv(f"cone --family {sp} --cone mov --format json --threads 1")
              for sp in ("qn --n 7", "qn --n 8", "qn --n 9",
                         "xnm --n 7 --m 8", "xnm --n 8 --m 9")),
    ),
    Workload(
        "fans-verify",
        "verify all, 15 sbl fans, small cones: hundreds of tiny hulls, the "
        "Pool at threads 2, refdata and formulas",
        _fans_verify(),
    ),
)}


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="ascii"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_verify(out: str) -> str:
    lines = out.splitlines()
    if not lines:
        return "verify printed nothing"
    passed, _, total = lines[-1].split(" ", 1)[0].partition("/")
    if passed != total or not passed.isdigit() or int(passed) < 1:
        return f"verify summary {lines[-1]!r}"
    bad = [line for line in lines[:-1] if not line.startswith("ok ")]
    if bad or len(lines) - 1 != int(total):
        return f"verify reported {bad[:1] or lines[-1:]}"
    return ""


def _check_bench(argv: tuple[str, ...], out: str) -> str:
    """Each row's ray count against the closed-form law 2^(n-1), +1 if wide."""
    flag = dict(zip(argv[1::2], argv[2::2]))
    lo, _, hi = flag["--n"].partition("..")
    ns = range(int(lo), int(hi or lo) + 1)
    rows = [line.split() for line in out.splitlines()[1:]]
    if len(rows) != len(ns):
        return f"bench printed {len(rows)} rows for {len(ns)} spaces"
    for n, row in zip(ns, rows):
        wide = flag["--family"] == "xnm" and int(flag["--m"]) > n
        law = 2 ** (n - 1) + wide
        if len(row) != 6 or row[1:3] != [str(law)] * 2 or row[5] != "ok":
            return f"bench row {' '.join(row)!r}, law {law}"
    return ""


def stable_output(argv: tuple[str, ...], out: str) -> str:
    """The output with the times ``bench`` measures blanked, to compare runs."""
    return re.sub(r"\b\d+\.\d+s\b", "-", out) if argv[0] == "bench" else out


def check(argv: tuple[str, ...], rc, out: str, digests: dict[str, str]) -> str:
    """Empty string when a command's output is correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if argv[0] in ("cone", "chambers"):
        want = digests.get(" ".join(argv))
        if want is None:
            return "no digest recorded for this command"
        got = sha256(out)
        if got != want:
            return f"sha256 {got[:12]} differs from recorded {want[:12]}"
        return ""
    if argv[0] == "verify":
        return _check_verify(out)
    if argv[0] == "bench":
        return _check_bench(argv, out)
    return ""
