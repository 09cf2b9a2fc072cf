"""Span tracer that wraps qheis's public functions from outside the package.

`Tracer.install` replaces every public function of the traced modules
(their ``__all__``) by a wrapper that records a span and work counts, and
patches ``ScalarField.__call__`` and ``ScalarField.jet_batch`` on the
class.  ``from .x import y`` binds ``y`` in the importing module at import
time, so the wrapper is written into every ``qheis`` module, the package
namespace included, wherever the original object is bound.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written once at the end.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over
its spans, so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np
from qheis.extremals import SpherePoint
from qheis.jets import ScalarField
from qheis.quaternions import GroupPoint

LAYERS = ("quaternions", "jets", "frame", "conformal", "extremals", "quadrature", "audit")

#: Layers whose calls also count the points they were handed.  The jets
#: layer counts points only at its entry points, split by what they return.
POINT_LAYERS = ("frame", "conformal", "extremals")
JET_ENTRY_POINTS = {
    "jets.ScalarField.__call__": "jets.points_value",
    "jets.ScalarField.jet_batch": "jets.points_jet",
    "jets.eval_jet": "jets.points_jet",
}

#: Bytes of one float64 7x7 Hessian: every jet evaluation builds one per point.
HESS_BYTES_PER_POINT = 7 * 7 * 8


def _npoints(args) -> int:
    """Points in the first argument that is a point batch (..., 7) or a point object."""
    for a in args:
        if isinstance(a, np.ndarray):
            if a.ndim and a.shape[-1] == 7:
                return a.size // 7
        elif isinstance(a, (GroupPoint, SpherePoint)):
            return 1
    return 0


def _levels_and_nodes(out, counts: Counter) -> None:
    counts["quadrature.levels"] += len(out.table)
    counts["quadrature.nodes"] += sum(row[3] for row in out.table)


def _mc_samples(out, counts: Counter) -> None:
    counts["quadrature.mc_samples"] += out.samples


def _search(out, counts: Counter) -> None:
    counts["quadrature.search_nfev"] += out.nfev
    counts["quadrature.search_restarts"] += out.restarts


def _checks(out, counts: Counter) -> None:
    counts["audit.checks"] += len(out)


#: Work counts read from what a layer returns, by span name.
RESULT_COUNTS = {
    "quadrature.integrate_biradial": _levels_and_nodes,
    "quadrature.integrate_mc": _mc_samples,
    "quadrature.minimize_quotient": _search,
    "audit.run_suite": _checks,
}


class Tracer:
    """Records spans and counts while installed; `uninstall` restores qheis."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # per wrapper [calls, points], summed per layer by `counts`
        self._cells: list[tuple[str, str | None, list[int]]] = []
        self._result_counts: Counter = Counter()
        self._built: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span_name(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        result_counts = self._result_counts
        point_key = JET_ENTRY_POINTS.get(name, f"{layer}.points" if layer in POINT_LAYERS else None)
        cell = [0, 0]
        self._cells.append((layer, point_key, cell))
        on_result = RESULT_COUNTS.get(name)
        fixed_id = None if name == "audit.run_suite" else self._span_name(name)
        stack = self._stack
        starts, ends = self.start, self.end
        add_name, add_parent, add_start, add_end = (
            self.name_id.append, self.parent.append, starts.append, ends.append)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if point_key is not None:
                cell[1] += _npoints(args)
            sid = fixed_id
            if sid is None:  # one span name per suite, e.g. audit.run_suite:frames
                suite = args[0] if args else kwargs["name"]
                sid = tracer._span_name(f"{name}:{suite}")
            idx = len(starts)
            add_name(sid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out, result_counts)
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def _wrappers(self) -> dict:
        """Wrapper per public function and ScalarField method, built once."""
        if not self._built:
            for layer in LAYERS:
                module = importlib.import_module(f"qheis.{layer}")
                for attr in module.__all__:
                    obj = getattr(module, attr)
                    if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                        self._built[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
            for attr in ("__call__", "jet_batch"):
                original = getattr(ScalarField, attr)
                self._built[original] = self._wrap(original, f"jets.ScalarField.{attr}", "jets")
        return self._built

    def install(self) -> None:
        """Patch every binding of a wrapped function in qheis, and ScalarField."""
        wrappers = self._wrappers()
        owners = [m for n, m in sys.modules.items() if n == "qheis" or n.startswith("qheis.")]
        for owner in owners + [ScalarField]:
            for attr, obj in list(vars(owner).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts; patches stay in place."""
        del self.name_id[:], self.parent[:], self.start[:], self.end[:]
        for _, _, cell in self._cells:
            cell[:] = [0, 0]
        self._result_counts.clear()

    def counts(self) -> Counter:
        """Calls per layer, points per point key, and the counts read from results."""
        out = Counter(self._result_counts)
        for layer, point_key, (calls, points) in self._cells:
            out[f"{layer}.calls"] += calls
            if point_key is not None:
                out[point_key] += points
        return out

    # -- results ---------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self time per layer, inclusive time per span name), in seconds."""
        spans = self.span_arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        nid = spans["name_id"]
        per_name_self = np.bincount(nid, weights=own, minlength=len(self.names))
        per_name_incl = np.bincount(nid, weights=dur, minlength=len(self.names))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        inclusive = {}
        for i, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(per_name_self[i])
            inclusive[name] = float(per_name_incl[i])
        return layer_self, inclusive
