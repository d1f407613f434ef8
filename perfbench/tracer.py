"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``Tracer.install``
replaces chosen public functions of the ``hfosc`` modules by wrappers that
time each call, in every ``hfosc`` module namespace that refers to them, so
calls made inside the package (``cli.run`` calling ``expand``) are seen as
well.  ``uninstall`` puts the originals back.  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op id].
        self.spans = []
        self._stack = []
        self._patched = []
        self.op_id = -1
        # Stable/Unstable verdicts returned by classify, for the decided ratio.
        self.decided = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if name == "averaging.classify" and result.kind in ("Stable", "Unstable"):
                self.decided += 1
            return result

        return traced

    def install(self, targets):
        """Wrap ``module.function`` for each name like "oracle.monodromy"."""
        for name in targets:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"hfosc.{module_name}"), attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("hfosc") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path, extra: dict):
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["summary"] = self.summary()
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
