"""Mutation gate: every planted fault in the pass and the walk must fail tier-1.

    python3 tools/mutants.py

Each mutant is one text replacement in one source file, ``(file, old text,
new text)``; its old text must occur exactly once, or the gate stops before
it runs anything.  For each mutant the working tree, without ``.git`` and
its caches, is copied into a fresh temporary directory, the replacement is
made there, and tier-1 runs on the copy with ``pytest -x`` under
``TIMEOUT``.  A mutant is killed when a test fails or the run times out,
and the first failing test is printed; it survives when tier-1 passes.  The
unchanged tree runs first and must pass, or no verdict means anything.

The equivalent mutants stay listed with the reason they change nothing, and
are expected to survive.  The exit status is 1 when a mutant that should be
killed survives, or the unchanged tree fails, and 0 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# What a copy of the working tree leaves out.
SKIPPED = (".git", "__pycache__", ".pytest_cache", ".hypothesis")
CONES = "src/formcones/cones.py"
# Seconds per tier-1 run; an unchanged tree takes well under a minute.
TIMEOUT = 240


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    # Why the mutant changes no result, for one that tier-1 cannot kill.
    equivalent: str = ""


MUTANTS = (
    Mutant("lane-without-sign-bit", CONES,
           "((bound * reach).bit_length() + 1 + 7) // 8",
           "((bound * reach).bit_length() + 7) // 8"),
    # The lane writer of _pack.
    Mutant("lane-sign-bytes-zero", CONES,
           "sign = parts[-1][7::8].translate(_SIGN)", "sign = bytes(count)"),
    Mutant("lane-top-limb-unsigned", CONES,
           'Struct(f"<{count}q")', 'Struct(f"<{count}Q")'),
    Mutant("lane-without-the-xor", CONES,
           '(int.from_bytes(lanes, "little") ^ half) - half',
           'int.from_bytes(lanes, "little") - half'),
    Mutant("lane-bytes-from-the-top-limb", CONES,
           "lanes[k::size] = parts[k // 8][k % 8::8]",
           "lanes[k::size] = parts[-1][k % 8::8]"),
    Mutant("simple-ray-off-by-one", CONES,
           "if tight.bit_count() != target + 1:",
           "if tight.bit_count() != target:"),
    Mutant("new-row-not-a-candidate", CONES,
           "cand = keep | bit", "cand = keep"),
    Mutant("seed-check-skips-lineality", CONES,
           "any(dot(a, v) for v in lin)\n        or vecs and", "vecs and"),
    Mutant("read-back-drops-equalities", CONES,
           "basis = row_space_basis([rows[i] for i in equalities])",
           "basis = row_space_basis([])"),
    Mutant("rank-filter-one-lower", CONES,
           "if (common & keep).bit_count() < target:",
           "if (common & keep).bit_count() < target - 1:"),
    Mutant("candidates-kept-without-positive-ray", CONES,
           "        cand = (bit << 1) - 1\n", "        cand = cand | bit\n"),
    Mutant("lanes-skip-negative-entries", CONES,
           "        if c:\n            x += c * col",
           "        if c > 0:\n            x += c * col"),
    Mutant("kept-rows-not-maximal", CONES,
           "if all(zeros & big != zeros for big in maximal):",
           "if all(zeros != big for big in maximal):"),
    Mutant("movable-facets-drop-one-B_h", "src/formcones/formulas.py",
           "        out.add(vec((0, 1), (h, h + 1), (h + 1, -h)))",
           "        if h > 1:\n"
           "            out.add(vec((0, 1), (h, h + 1), (h + 1, -h)))"),
    Mutant("face-test-allows-a-third-ray", CONES,
           "if face.bit_count() > 2:", "if face.bit_count() > 3:",
           equivalent="the smallest face holding two extreme rays never "
                      "holds exactly three: a pointed face with three rays "
                      "is simplicial, so the two rays would span a 2-face "
                      "inside it"),
    Mutant("chamber-tie-strict", "src/formcones/chambers.py",
           "dot(g, d) >= 0)", "dot(g, d) > 0)",
           equivalent="a tie on both terms of the perturbation changes no "
                      "chamber or wall of any walk up to collineations(5,6); "
                      "see ROADMAP item 3's ties"),
    # The simplicial route of _insert.
    Mutant("simplicial-wrong-facet-row", CONES,
           "for mask in reversed(masks):", "for mask in masks:"),
    Mutant("simplicial-last-facet-row", CONES,
           "opposite.append(rows & -rows)",
           "opposite.append(1 << rows.bit_length() - 1)",
           equivalent="distinct primitive rows tight on the same d - 1 "
                      "independent vectors, the other rays and a lineality "
                      "basis, are equal, so in a simplicial cone each facet "
                      "has one row, the first and the last"),
    Mutant("simplicial-wrong-positive-ray", CONES,
           "combine(nvec, an, pvec, ap)",
           "combine(nvec, an, ends[0][0], ends[0][2])"),
    Mutant("simplicial-rays-in-ray-order", CONES,
           "sorted(positive, key=opposite.__getitem__)", "positive"),
    Mutant("simplicial-without-the-and-test", CONES,
           "if len(vecs) == d - len(lin) and not reduce(and_, masks):",
           "if len(vecs) == d - len(lin):"),
    Mutant("simplicial-candidates-kept-without-positive-ray", CONES,
           "else (bit << 1) - 1", "else cand | bit"),
    # The conversion record that a cone and its dual share.
    Mutant("dual-keeps-the-side", CONES,
           "return Cone(c._record, 1 - c._side)", "return Cone(c._record, c._side)"),
    Mutant("halfspaces-give-the-generator-side", CONES,
           'normals, ambient_rank, "normal")), _H)', 'normals, ambient_rank, "normal")), _V)'),
    Mutant("read-back-stored-as-the-pass-output", CONES,
           "self.sides[0] = pair, _merge_pairs(*pair)",
           "self.sides[0] = self.sides[1] = pair, _merge_pairs(*pair)"),
)


def _checked(mutants) -> None:
    """Stop unless each mutant's old text occurs exactly once in its file."""
    bad = []
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text found {count} times in {m.path}")
    if bad:
        sys.exit("mutants out of date:\n  " + "\n  ".join(bad))


def _tier1(mutant: Mutant | None) -> tuple[str, str, float]:
    """``(verdict, first failing test, seconds)`` of tier-1 on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", "--continue-on-collection-errors"],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed", f"(timed out after {TIMEOUT} s)", TIMEOUT
        took = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", "", took
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    tail = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
    return "killed", failed.group(1) if failed else tail[0], took


def main() -> int:
    _checked(MUTANTS)
    verdict, first, took = _tier1(None)
    if verdict != "survived":
        print(f"unchanged tree fails tier-1 ({took:.1f} s): {first}")
        return 1
    print(f"unchanged tree passes tier-1 in {took:.1f} s")
    missed = []
    for m in MUTANTS:
        verdict, first, took = _tier1(m)
        note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{verdict:8}  {m.name:48} {took:6.1f} s  {first}{note}",
              flush=True)
        if verdict == "survived" and not m.equivalent:
            missed.append(m.name)
    if missed:
        print(f"{len(missed)} mutants survived: {', '.join(missed)}")
        return 1
    print("every mutant that changes a result was killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
