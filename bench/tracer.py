"""In-memory spans around the program's module-level functions.

The tracer swaps each target function for a wrapper in every l0prune
module namespace that holds it (modules import each other's functions by
name, so patching the defining module alone would miss most calls), and
puts the originals back on exit. A target missing at some commit is
skipped, so its metrics read zero calls instead of crashing the run.

A span is (name, start, end, parent, meta). A span's self time is its
duration minus the time its direct children cover; calls are nested and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager

TARGETS = {
    "l0prune.admm": ["admm_solve", "preprocess"],
    "l0prune.linalg": [
        "ridge_solve",
        "eigendecompose",
        "validate_gram",
        "as_matrix",
        "gram_from_activations",
        "relative_error",
        "layer_objective",
    ],
    "l0prune.projections": ["project", "support_of", "support_change"],
    "l0prune.pcg": ["pcg_refine"],
    "l0prune.baselines": ["activation_weighted_prune", "backsolve_exact"],
    "l0prune.matrixio": ["read_matrix", "write_matrix"],
    "l0prune.diagnostics": ["check_lemma1", "check_lemma2", "theorem1_residual_bound"],
    "l0prune.cli": ["cmd_prune"],
}


def _ridge_flop(args, kwargs):
    """4 n^2 m: the two n x n by n x m products of one ridge solve."""
    cache, _, b = args[:3]
    n = cache.q.shape[0]
    return {"flop": 4 * n * n * b.shape[1]}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# Extra facts recorded after the span closes, so they cost no traced time.
META = {"linalg.ridge_solve": _ridge_flop, "matrixio.read_matrix": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meta = META.get(key)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([key, clock(), None, stack[-1] if stack else None, None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                if meta is not None:
                    try:
                        spans[index][4] = meta(args, kwargs)
                    except (AttributeError, IndexError, TypeError, OSError):
                        # A signature change at some commit loses the
                        # extra fact, not the span.
                        pass

        return traced

    @contextmanager
    def installed(self):
        """Wrap every present target for the duration of the block."""
        patched = []
        for mod_name, names in TARGETS.items():
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                key = f"{mod_name.split('.')[-1]}.{name}"
                wrapper = self._wrap(key, original)
                for owner in list(sys.modules.values()):
                    owner_name = getattr(owner, "__name__", "")
                    if owner_name != "l0prune" and not owner_name.startswith("l0prune."):
                        continue
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            patched.append((owner, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def summarize(spans: list[list]) -> dict:
    """Per-name totals: calls, inclusive seconds, self seconds, summed meta."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, meta) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        for field, value in (meta or {}).items():
            entry[field] = entry.get(field, 0) + value
    return out


def merge(summaries: list[dict]) -> dict:
    """Add several summaries, e.g. one per CLI child process of a pass."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            total = out.setdefault(name, {})
            for field, value in entry.items():
                total[field] = total.get(field, 0) + value
    return out
