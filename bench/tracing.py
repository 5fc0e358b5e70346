"""Spans and call counts around the library's layers, installed from outside.

A layer is one module of `src/detraceval`.  Its public functions are
replaced by wrappers in every `detraceval` module that binds them, which is
where calling modules look them up, so no library code changes.  A function
that is missing (renamed or deleted by a later change) is reported, not
fatal.

Spans keep a per-thread stack, so self time stays correct when `--jobs`
runs work on pool threads.  `geometry.iou` runs millions of times
per sweep, so it and `ignore_coverage` are counted in a separate invocation
that records no spans.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy


def _boxes(result) -> int:
    total = getattr(result, "total_boxes", None)
    return total() if total else len(result)


# (module, function) -> extra counts taken from (args, result) after the
# span closes.
SPANNED = {
    ("datamodel", "parse_ground_truth"): lambda a, r: {"boxes": _boxes(r)},
    ("datamodel", "parse_detections"): lambda a, r: {"boxes": _boxes(r)},
    ("datamodel", "parse_tracks"): lambda a, r: {"boxes": _boxes(r)},
    ("trackers", "greedy_iou_track"):
        lambda a, r: {"dets_in": len(a[0]), "tracks_out": len(r)},
    ("det_metrics", "detection_report"): None,
    ("det_metrics", "pr_curve_multi"): None,
    ("det_metrics", "counts_at_threshold"): None,
    # One call labels one sequence: a greedy matching pass.
    ("det_metrics", "_label_detections"): None,
    ("matching", "match_frame_greedy"): None,
    ("matching", "clear_correspond"): None,
    ("matching", "hungarian"): lambda a, r: {"cells": int(numpy.size(a[0]))},
    ("mot_metrics", "evaluate_clear"):
        lambda a, r: {"frames": len(r[1].frame_counts)},
    ("pr_integration", "sweep"): lambda a, r: {"points": len(r)},
}

COUNTED = (("geometry", "iou"), ("geometry", "ignore_coverage"))


def _rebind(module: str, name: str, make_wrapper) -> bool:
    """Replace detraceval.<module>.<name> wherever a detraceval module binds
    it.  Returns False when the function does not exist."""
    original = getattr(sys.modules.get(f"detraceval.{module}"), name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "detraceval" or mod_name.startswith("detraceval."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return True


class Tracer:
    """Records one span per wrapped call: (key, start, end, time in child
    spans, extras).  Each thread keeps its own stack of open spans, so a
    span's children are the spans it called on its own thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def install(self) -> None:
        for (module, name), extras in SPANNED.items():
            key = f"{module}.{name}"
            if not _rebind(module, name,
                           lambda fn, key=key, extras=extras:
                           self.wrap(key, fn, extras)):
                self.missing.append(key)

    def wrap(self, key: str, fn, extras=None):
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            spans.append((key, start, end, children[0],
                          extras(args, result) if extras else None))
            return result

        return traced

    def summary(self) -> dict:
        """Per function: calls, total seconds, self seconds (duration minus
        child spans) and summed extras, over all threads."""
        out: dict[str, dict] = {}
        for key, start, end, children, extras in self.spans:
            entry = out.setdefault(key, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
            for name, value in (extras or {}).items():
                entry[name] = entry.get(name, 0) + value
        return out


class Counter:
    """Counts calls to the COUNTED functions, without timing them."""

    def __init__(self):
        self.counts: dict[str, itertools.count] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        for module, name in COUNTED:
            key = f"{module}.{name}"
            # next() on itertools.count is atomic under the GIL, unlike +=.
            counter = self.counts[key] = itertools.count()
            if not _rebind(module, name,
                           lambda fn, counter=counter: self._wrap(fn, counter)):
                self.missing.append(key)

    @staticmethod
    def _wrap(fn, counter):
        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return counted

    def summary(self) -> dict:
        return {key: next(c) for key, c in self.counts.items()}
