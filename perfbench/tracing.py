"""Spans around the public ``formcones`` functions that the CLI reaches.

:meth:`Tracer.install` rebinds those names, in the modules that call them,
to timing wrappers; the package's own source is not changed.  Spans stay in
memory as ``[name, parent_index, start, end]`` lists until the pass ends.
Layers below these calls (``linalg``, the inside of ``_polar``) cannot be
timed from here.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # Movable cones by id, held so that an id is never reused in a pass.
        self._movable: dict[int, object] = {}
        self._timed_views: set[tuple[int, str]] = set()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = [name, self._stack[-1] if self._stack else None,
                time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def install(self) -> None:
        from formcones import chambers, cli, cones, refdata, reports, spaces, verify

        def rebind(name, wrapper, *modules):
            for module in modules:
                setattr(module, name, wrapper)

        def on_movable(cone, s, *, brute_force=False, threads=None):
            self._movable[id(cone)] = cone
            if not brute_force:
                self.counts["spaces.omit_one_hulls"] += len(
                    spaces.grading_matrix(s).multiplicity_one_coords())

        def on_fan(fan, *args, **kwargs):
            self.counts["chambers.chambers_out"] += len(fan.chambers)
            self.counts["chambers.walls_out"] += len(fan.walls)

        def on_json(text, *args, **kwargs):
            self.counts["reports.bytes_out"] += len(text)

        rebind("movable_cone",
               self._timed("spaces.movable_cone", spaces.movable_cone, on_movable),
               cli, verify)
        for name in ("gkz_fan", "sbl_merge"):
            rebind(name, self._timed(f"chambers.{name}", getattr(chambers, name), on_fan),
                   cli, verify)
        # sbl_merge imports load_sbl_fixture from refdata when it runs.
        for name in ("bundled_fan_keys", "bundled_spaces", "load_sbl_fixture"):
            rebind(name, self._timed("refdata.load", getattr(refdata, name)),
                   refdata, cli, verify)
        for name in ("cone_report", "fan_report"):
            rebind(name, self._timed("reports.serialise", getattr(reports, name)), cli)
        rebind("canonical_json",
               self._timed("reports.serialise", reports.canonical_json, on_json), cli)
        rebind("extremal_rays", self._certificate(cones.extremal_rays),
               spaces, chambers, verify)
        rebind("dd_convert", self._convert(cones.dd_convert), cli)
        rebind("run_suite", self._suites(verify.run_suite, verify.SUITES), cli)
        cones.Cone.rays = self._first_view("cones.rays", cones.Cone.rays)
        cones.Cone.facets = self._first_view("cones.facets", cones.Cone.facets)

    def _certificate(self, extremal_rays):
        @functools.wraps(extremal_rays)
        def wrapper(c, *, certify=True):
            if not certify:
                return extremal_rays(c, certify=False)
            return self.call("cones.certificate", extremal_rays, c, certify=True)
        return wrapper

    def _convert(self, dd_convert):
        """``dd_convert``; on a movable cone, as its two views, rays first."""
        @functools.wraps(dd_convert)
        def wrapper(c):
            if id(c) not in self._movable:
                return self.call("cones.convert", dd_convert, c)
            _ = c.rays
            _ = c.facets
            return dd_convert(c)
        return wrapper

    def _first_view(self, name: str, prop: property) -> property:
        """Time the first read of a view of a movable cone: the pass behind it."""
        get = prop.fget

        def view(c):
            key = (id(c), name)
            if id(c) not in self._movable or key in self._timed_views:
                return get(c)
            self._timed_views.add(key)
            out = self.call(name, get, c)
            self.counts[f"{name}_out"] += len(out)
            return out
        return property(view, doc=prop.__doc__)

    def _suites(self, run_suite, suites):
        """``run_suite("all")`` as one call per suite, which it concatenates."""
        @functools.wraps(run_suite)
        def wrapper(suite, **kwargs):
            out = []
            for name in suites if suite == "all" else (suite,):
                part = self.call(f"verify.{name}", run_suite, name, **kwargs)
                self.counts["verify.checks"] += len(part)
                out += part
            return out
        return wrapper
