"""Span tracer that wraps ospsim's layers from outside the package.

Nothing under src/ knows about it.  `Tracer.install` replaces every public
module-level function of the traced modules with a timing wrapper, and
wraps `qsim.DenseState.__init__` and the party classes' `on_message` in
place, so classes stay the same objects and `isinstance` keeps working.
`uninstall` puts the originals back.  Module code calls its siblings
through module attributes (`qsim.apply_gate(...)`), so calls made inside
the package are seen too.

Each wrapped call records one span: name, start, end, parent span and
the id of the operation (round or session) it belongs to.  Spans stay in
memory and are written to an .npz file when the run ends.  Self time is
a span's duration minus the durations of the wrapped calls nested in it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

from ospsim import apps, cvqc, delegation, gadgets, gf2, harness, osp, qsim, tcf

MODULES = (gf2, tcf, qsim, osp, gadgets, delegation, cvqc, apps, harness)

# Session drivers block on the peer for most of their duration; their self
# time would be waiting, which the wire workloads report as wire.wait_s.
SKIP = {"harness.serve_on", "harness.serve_once", "harness.connect_and_run"}

PARTY_CLASSES = (apps.PoqVerifierParty, apps.PoqProverParty,
                 apps.OtReceiverParty, apps.OtSenderParty)

def _dense_bytes(num_qubits: int) -> int:
    """Computed traffic of one pass over a state: read and write, 16 B each."""
    return 2 * 16 * (1 << num_qubits)


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_id = array("q")  # spans are stored as they end
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # extra counters: gates, bytes
        self.peak_dense_qubits = 0
        self.op_id = -1
        self.paused = False
        self._stack = []  # [span id, time spent in wrapped children]
        self._next_span = 0
        self._restore = []

    # ------------------------------------------------------------ install

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module in MODULES:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(module).items()):
                label = "%s.%s" % (prefix, name)
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or label in SKIP):
                    continue
                self._patch(module, name, self._wrap(label, fn, _EXTRA.get(label)))
        init = qsim.DenseState.__init__
        self._patch(qsim.DenseState, "__init__",
                    self._wrap("qsim.DenseState", init, _dense_init))
        for cls in PARTY_CLASSES:
            label = "apps.%s.on_message" % cls.__name__
            self._patch(cls, "on_message", self._wrap(label, cls.on_message))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def _patch(self, owner, name, wrapper):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, label, fn, extra=None):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        name_id = self._ids[label]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[label] += 1
                self.self_s[label] += duration - frame[1]
                self.span_id.append(span)
                self.span_name.append(name_id)
                self.span_parent.append(parent)
                self.span_op.append(self.op_id)
                self.span_start.append(start)
                self.span_end.append(end)
            if extra is not None:
                extra(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict:
        """Plain-JSON totals, mergeable across processes with `merge`."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "peak_dense_qubits": self.peak_dense_qubits}

    def save_spans(self, path):
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _dense_init(tracer, args, _result):
    n = args[0].num_qubits
    if n > tracer.peak_dense_qubits:
        tracer.peak_dense_qubits = n


def _gate_extra(tracer, args, _result):
    state, gate = args[0], args[1]
    key = gate.upper() if isinstance(gate, str) else "matrix"
    tracer.counts["qsim.apply_gate.%s.calls" % key] += 1
    tracer.counts["qsim.apply_gate.bytes"] += _dense_bytes(state.num_qubits)


def _measure_extra(tracer, args, _result):
    tracer.counts["qsim.measure.bytes"] += _dense_bytes(args[0].num_qubits)


def _frame_extra(tracer, _args, frame):
    tracer.counts["harness.frame_bytes"] += len(frame)


_EXTRA = {
    "qsim.apply_gate": _gate_extra,
    "qsim.measure": _measure_extra,
    "harness.frame_encode": _frame_extra,
}


def merge(a: dict, b: dict) -> dict:
    """Sum two snapshots; the peak width takes the larger of the two."""
    out = {"peak_dense_qubits": max(a["peak_dense_qubits"],
                                    b["peak_dense_qubits"])}
    for key in ("calls", "self_s", "counts"):
        merged = dict(a[key])
        for name, value in b[key].items():
            merged[name] = merged.get(name, 0) + value
        out[key] = merged
    return out
