"""Data and spies that more than one test module uses."""

import inspect
import sys

from formcones import cones as cones_module
from formcones.spaces import SpaceSpec, collineations, quadrics

# The cone over a 3-cube in rank 4 and its dual, the cone over an octahedron:
# each one's rays are the other's facets.
CUBE_RAYS = ((-1, -1, -1, 1), (-1, -1, 1, 1), (-1, 1, -1, 1), (-1, 1, 1, 1),
             (1, -1, -1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, 1))
OCTAHEDRON_RAYS = ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1),
                   (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1))

# The cone over a 6-dimensional cross-polytope in rank 7: 12 rays e0 +- ei and
# 64 facets; CROSS_INSIDE lies inside it.  As normals, CROSS_RAYS cut out the
# cone over a 6-cube, with 64 rays, and CROSS_INSIDE is redundant for it.
CROSS_RAYS = tuple(tuple(int(j == 0) + s * int(j == i) for j in range(7))
                   for i in range(1, 7) for s in (1, -1))
CROSS_INSIDE = ((1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0),
                (3, 0, -1, 1, 0, 0, 0), (4, 1, 1, 1, -1, 0, 0))


def omit_one_spaces():
    """Every space of Picard rank 2..10 in the families xn, qn and xnm.

    xnm means collineations(n, m) with m = n+1..n+3; every stage of each
    space is included.
    """
    bases = [make(n) for n in range(2, 11) for make in (collineations, quadrics)]
    bases += [collineations(n, n + k) for n in range(1, 10) for k in (1, 2, 3)]
    out = []
    for s in bases:
        out.append(s)
        out += [SpaceSpec(s.family, s.n, s.m, i) for i in range(1, s.n)]
    return out


# The lines of _polar's row step, _insert, that mark each ray step: the
# simplicial route's facet sweep, once per cut of a simplicial cone, and on
# the general route the pivot for a simple negative ray, the pair loop's face
# test, and the edge a simple positive ray makes with no face test.
STEPS = {"simplicial": "suffix = [cand]", "pivot": "prefix &= h",
         "pair loop": "face &= holding[i]",
         "simple positive ray": "combine(nvec, an, p, ap)"}


def trace_insert(build, markers, visit):
    """Run ``build``, calling ``visit(step, f_locals)`` at ``_insert``'s marker lines.

    ``markers`` maps each step to a text that only its line holds.  A
    wrapper made with ``functools.wraps`` is seen through to the step.
    """
    insert = inspect.unwrap(cones_module._insert)
    lines, first = inspect.getsourcelines(insert)
    steps = {first + i: step for i, line in enumerate(lines)
             for step, text in markers.items() if text in line}
    found = list(steps.values())
    moved = [f"{step} ({text!r} on {found.count(step)} lines)"
             for step, text in markers.items() if found.count(step) != 1]
    assert not moved, ("each marker must match one line of _insert: "
                       + ", ".join(moved))

    def in_insert(frame, event, arg):
        if event == "line" and frame.f_lineno in steps:
            visit(steps[frame.f_lineno], frame.f_locals)
        return in_insert

    def calls(frame, event, arg):
        return in_insert if frame.f_code is insert.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        build()
    finally:
        sys.settrace(previous)


def ray_steps(build):
    """``(row index, step)`` for every ray step ``_insert`` runs in ``build``.

    The row is ``_insert``'s ``idx`` argument.
    """
    seen = set()

    def visit(step, local):
        # Past the face test the edge line runs too: it marks the shortcut
        # only for a simple ``p``.
        if step != "simple positive ray" or local["simple"]:
            seen.add((local["idx"], step))

    trace_insert(build, STEPS, visit)
    return sorted(seen)
