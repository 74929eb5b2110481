"""In-memory span tracer for the benchmark's ``--trace`` run.

The tracer wraps public entry points of each layer from the outside
(nothing under ``src/`` knows about it) and records one span per call:
name, start, end, parent span and request id. Spans stay in flat arrays
until the run ends; a span's self time is its duration minus the time
its child spans cover, computed when it closes.

:data:`LAYERS` names the module behind each span. The wrapped calls are
``SimdMachine.run``, every per-node kernel or native callable, the first
``KernelProgram.fns`` access (exec of the generated module),
``nativert.build_shared`` and ``load_native``, ``LazyProgram.fetch``,
``ConversionEngine.ensure`` and ``repro.codegen.lazy.compile_node`` /
``compile_node_kernel``. The benchmark harness opens a ``request`` span
around each request, so the self times of one request's spans add up
to its wall time.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

#: Request ids of the spans recorded outside any request.
COLD_SETUP = -1
WARM_SETUP = -2

#: Span name -> what its self time covers.
LAYERS = {
    "request": "bench harness",
    "machine.run": "simd.machine step loop",  # globalor, dispatch, state
    "kernels.node": "codegen.kernels node calls",
    "nativert.node": "simd.nativert node calls + FFI",
    "kernels.exec": "codegen.kernels .fns exec",
    "nativert.cc": "simd.nativert cc",
    "nativert.load": "simd.nativert cdef+dlopen",
    "lazy.fetch": "codegen.lazy fetch",
    "lazy.expand": "core engine.ensure",
    "lazy.compile_node": "codegen.emit compile_node",
    "lazy.jit": "codegen.kernels compile_node_kernel",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._node_ids: dict = {}
        self.name = array("i")
        self.node = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self._stack: list[list[int]] = []
        self.request_id = COLD_SETUP
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped_dicts: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, node: int = -1) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.node.append(node)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self.self_ns.append(0)
        self._stack.append([idx, 0])
        # Read the clock last, so the bookkeeping above is charged to
        # the parent span rather than to this one.
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        t = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        dur = t - self.start[idx]
        self.end[idx] = t
        self.self_ns[idx] = dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name: str, fn, node=None):
        """``fn`` recording a ``name`` span per call (``node`` tags the
        span with a per-node id for the top-node share)."""
        nid = self.name_id(name)
        kid = -1
        if node is not None:
            kid = self._node_ids.setdefault(node, len(self._node_ids))
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid, kid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def _wrap_nodes(self, fns: dict, name: str) -> None:
        """Replace the per-node callables of ``fns`` in place (the
        machine reads the dict every step)."""
        if id(fns) in self._wrapped_dicts:
            return
        for key, fn in fns.items():
            if not hasattr(fn, "__wrapped__"):
                fns[key] = self.wrap(name, fn, (id(fns), key))
        self._wrapped_dicts[id(fns)] = fns

    def install(self) -> None:
        from repro.codegen import kernels, lazy
        from repro.core.convert import ConversionEngine
        from repro.simd import nativert
        from repro.simd.machine import SimdMachine

        if self._originals:
            return
        run = vars(SimdMachine)["run"]
        fetch = vars(lazy.LazyProgram)["fetch"]
        ensure = vars(ConversionEngine)["ensure"]
        fns_prop = vars(kernels.KernelProgram)["fns"]
        load_native = nativert.load_native
        exec_id = self.name_id("kernels.exec")
        load_id = self.name_id("nativert.load")
        fetch_id = self.name_id("lazy.fetch")

        def traced_fns(kp):
            if kp._fns is not None:
                fns = fns_prop.fget(kp)
            else:
                idx = self.begin(exec_id)
                try:
                    fns = fns_prop.fget(kp)
                finally:
                    self.finish(idx)
            self._wrap_nodes(fns, "kernels.node")
            return fns

        def traced_load(nat):
            idx = self.begin(load_id)
            try:
                fns = load_native(nat)
            finally:
                self.finish(idx)
            self._wrap_nodes(fns, "nativert.node")
            return fns

        def traced_fetch(mgr, key, want_kernel=False):
            idx = self.begin(fetch_id)
            try:
                return fetch(mgr, key, want_kernel)
            finally:
                self.finish(idx)
                fn = mgr.kfns.get(key)
                if fn is not None and not hasattr(fn, "__wrapped__"):
                    mgr.kfns[key] = self.wrap("kernels.node", fn,
                                              (id(mgr.kfns), key))
                    self._wrapped_dicts[id(mgr.kfns)] = mgr.kfns

        patches = [
            (SimdMachine, "run", self.wrap("machine.run", run)),
            (lazy.LazyProgram, "fetch", traced_fetch),
            (ConversionEngine, "ensure", self.wrap("lazy.expand", ensure)),
            (lazy, "compile_node",
             self.wrap("lazy.compile_node", lazy.compile_node)),
            (lazy, "compile_node_kernel",
             self.wrap("lazy.jit", lazy.compile_node_kernel)),
            (nativert, "build_shared",
             self.wrap("nativert.cc", nativert.build_shared)),
            (nativert, "load_native", traced_load),
            (kernels.KernelProgram, "fns", property(traced_fns)),
        ]
        for owner, attr, replacement in patches:
            self._originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self._originals.clear()
        for fns in self._wrapped_dicts.values():
            for key, fn in fns.items():
                fns[key] = getattr(fn, "__wrapped__", fn)
        self._wrapped_dicts.clear()

    # ------------------------------------------------------------------
    # aggregation and output
    # ------------------------------------------------------------------
    def layers(self, requests) -> dict[str, dict[str, float]]:
        """Per span name over the spans of ``requests`` (an iterable of
        request ids): total self and inclusive milliseconds and calls."""
        req = np.frombuffer(self.request, dtype=np.int32)
        mask = np.isin(req, np.fromiter(requests, dtype=np.int32))
        name = np.frombuffer(self.name, dtype=np.int32)[mask]
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))[mask]
        own = np.frombuffer(self.self_ns, dtype=np.int64)[mask]
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_ms = np.bincount(name, weights=own, minlength=n) / 1e6
        incl_ms = np.bincount(name, weights=dur, minlength=n) / 1e6
        return {self.names[i]: {"self_ms": float(self_ms[i]),
                                "incl_ms": float(incl_ms[i]),
                                "calls": int(calls[i])}
                for i in range(n) if calls[i]}

    def top_node_share(self, requests) -> float:
        """The costliest node's share of all node-call time."""
        req = np.frombuffer(self.request, dtype=np.int32)
        node = np.frombuffer(self.node, dtype=np.int32)
        mask = np.isin(req, np.fromiter(requests, dtype=np.int32))
        mask &= node >= 0
        if not mask.any():
            return 0.0
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))[mask]
        per_node = np.bincount(node[mask], weights=dur)
        return float(per_node.max() / per_node.sum())

    def write(self, path) -> None:
        """Every span as columnar JSON (times in ns from an arbitrary
        origin)."""
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "node": self.node.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "self_ns": self.self_ns.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def layer_table(title: str, layers: dict, wall_ms: float | None
                ) -> list[str]:
    """Rows of :meth:`Tracer.layers` output, costliest self time first,
    with each layer's share of ``wall_ms`` when given."""
    lines = [f"  {title}:",
             f"    {'layer':<44} {'self ms':>10} {'calls':>10}"
             + ("  share" if wall_ms else "")]
    for span, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
        label = f"{LAYERS.get(span, span)} [{span}]"
        share = f"  {v['self_ms'] / wall_ms:6.1%}" if wall_ms else ""
        lines.append(f"    {label:<44} {v['self_ms']:>10.3f} "
                     f"{v['calls']:>10.1f}{share}")
    return lines
