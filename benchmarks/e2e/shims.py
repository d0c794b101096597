"""Timing shims for the traced pass.

The benchmark records spans from its own files: :func:`install` wraps each
layer's entry points (``TARGETS``) with a shim that opens a span —
name, start, end, parent — on an in-memory stack.  Nothing inside the
program is edited, and nothing is installed for the untraced repetitions
that the end-to-end metrics come from.

A span's *self time* is its duration minus the part covered by its child
spans.  All shimmed entry points are synchronous and everything runs on
one thread, so child spans nest strictly inside their parent and self
time can be settled when the span closes.  Per-name call counts and self
times cover every span; the raw spans themselves are kept up to
``SPAN_LIMIT`` and written to the trace file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: Raw spans kept for the trace file (the aggregates cover all of them).
SPAN_LIMIT = 200_000

# How a target is found and patched:
#   ("method", module, "Class.attr")    setattr on the class
#   ("function", module, "name")        replaced in every loaded ``repro``
#                                       module that holds it, so names
#                                       imported by value are covered
#   ("registry", module, "DICT")        every value of a module-level dict
#   ("subclasses", module, "Base.attr") the attribute on every class in
#                                       the hierarchy that defines it
#                                       concretely
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.workloads.generate", "registry", "repro.sim.workloads", "GRID_FACTORIES"),
    ("sim.scheduler.run", "method", "repro.sim.scheduler", "Simulator.run"),
    ("sim.scheduler.admit", "method", "repro.sim.scheduler", "_Run.admit_arrivals"),
    ("sim.scheduler.phase_commit", "method", "repro.sim.scheduler", "_Run._phase_commit"),
    ("sim.scheduler.phase_classify", "method", "repro.sim.scheduler", "_Run._phase_classify"),
    ("sim.scheduler.phase_deadlock", "method", "repro.sim.scheduler", "_Run._phase_deadlock"),
    ("sim.scheduler.phase_execute", "method", "repro.sim.scheduler", "_Run._phase_execute"),
    ("sim.admission.take_check_slices", "method", "repro.sim.admission", "AdmissionCache.take_check_slices"),
    ("sim.admission.derive", "method", "repro.sim.admission", "Classifier.derive"),
    ("sim.admission.apply", "method", "repro.sim.admission", "Classifier.apply"),
    ("sim.admission.policy_changed", "method", "repro.sim.admission", "AdmissionCache.policy_changed"),
    ("sim.executor.run_classify", "method", "repro.sim.executor", "SerialExecutor.run_classify"),
    ("sim.lock_table.acquire", "method", "repro.sim.lock_table", "LockTable.acquire"),
    ("sim.lock_table.release", "method", "repro.sim.lock_table", "LockTable.release"),
    ("sim.lock_table.release", "method", "repro.sim.lock_table", "LockTable.release_all_wake"),
    ("sim.lock_table.blockers", "method", "repro.sim.lock_table", "LockTable.blockers"),
    ("sim.waits_for.update", "method", "repro.sim.waits_for", "WaitsForGraph.set_edges"),
    ("sim.waits_for.update", "method", "repro.sim.waits_for", "WaitsForGraph.drop_edges"),
    ("sim.waits_for.update", "method", "repro.sim.waits_for", "WaitsForGraph.remove_inbound"),
    ("sim.waits_for.update", "method", "repro.sim.waits_for", "WaitsForGraph.forget"),
    ("sim.waits_for.update", "method", "repro.sim.waits_for", "WaitsForGraph.add_edge_if_tracked"),
    ("sim.waits_for.find_cycle", "method", "repro.sim.waits_for", "WaitsForGraph.find_cycle"),
    ("sim.deadlock.find_cycle", "function", "repro.sim.deadlock", "find_cycle"),
    ("sim.deadlock.pick_victim", "function", "repro.sim.deadlock", "pick_victim"),
    ("sim.event_log.erase", "method", "repro.sim.event_log", "EventLog.erase"),
    ("sim.event_log.assemble", "function", "repro.sim.event_log", "assemble"),
    ("kernel.lifecycle.execute_step", "method", "repro.kernel.lifecycle", "KernelRun._execute_step"),
    ("kernel.lifecycle.commit", "method", "repro.kernel.lifecycle", "KernelRun.commit"),
    ("kernel.lifecycle.abort", "method", "repro.kernel.lifecycle", "KernelRun.abort"),
    ("policies.context.begin", "subclasses", "repro.policies.base", "PolicyContext.begin"),
    ("policies.session.peek", "subclasses", "repro.policies.base", "PolicySession.peek"),
    ("policies.session.admission", "subclasses", "repro.policies.base", "PolicySession.admission"),
    ("core.schedules.assert_legal", "method", "repro.core.schedules", "Schedule.assert_legal"),
    ("core.schedules.assert_proper", "method", "repro.core.schedules", "Schedule.assert_proper"),
    ("core.serializability.is_serializable", "function", "repro.core.serializability", "is_serializable"),
    ("kernel.core.begin", "method", "repro.kernel.core", "LockKernel.begin"),
    ("kernel.core.acquire", "method", "repro.kernel.core", "LockKernel.acquire"),
    ("kernel.core.finish", "method", "repro.kernel.core", "LockKernel.commit"),
    ("kernel.core.finish", "method", "repro.kernel.core", "LockKernel.abort"),
    ("kernel.audit.append", "method", "repro.kernel.audit", "AuditLog.append"),
    ("service.protocol.decode", "function", "repro.service.protocol", "decode"),
    ("service.protocol.encode", "function", "repro.service.protocol", "encode"),
    ("service.auth.check", "method", "repro.service.auth", "Authorizer.check"),
)

#: Packages whose modules must be loaded before functions imported by
#: value can be found at their import sites.
_PRELOAD = (
    "repro", "repro.sim", "repro.kernel", "repro.service", "repro.policies",
)


class Tracer:
    """Span stack, per-name aggregates, and the first raw spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        #: Raw spans as ``[name id, start ns, end ns, parent index]``;
        #: parent ``-1`` is a root.  A span's index is its start order.
        self.spans: List[List[int]] = []
        self.total_spans = 0
        #: Open spans as ``[span index, ns covered by closed children]``.
        self._stack: List[List[int]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` behind a shim that records one span per call."""
        nid = self._name_id(name)
        stack, spans = self._stack, self.spans
        calls, self_ns = self.calls, self.self_ns

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = self.total_spans
            self.total_spans = index + 1
            record = None
            if index < SPAN_LIMIT:
                record = [nid, 0, 0, stack[-1][0] if stack else -1]
                spans.append(record)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record is not None:
                    record[1] = start
                    record[2] = end

        return shim

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "self_ms": x}}`` over every span."""
        return {
            name: {"calls": self.calls[i], "self_ms": self.self_ns[i] / 1e6}
            for i, name in enumerate(self.names)
        }

    def flush(self, path: str) -> None:
        """Write the aggregates and the kept raw spans, times relative to
        the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "summary": self.summary(),
                    "total_spans": self.total_spans,
                    "kept_spans": len(self.spans),
                    "span_columns": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [
                        [n, s - origin, e - origin, p]
                        for n, s, e, p in self.spans
                    ],
                },
                fh, separators=(",", ":"),
            )


def _hierarchy(base: type) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


def _patch(tracer: Tracer, span: str, how: str, module_name: str, what: str) -> None:
    """Patch one target; raises ``AttributeError``/``ImportError`` when
    the entry point no longer exists."""
    module = importlib.import_module(module_name)
    if how == "registry":
        registry = getattr(module, what)
        for key in list(registry):
            registry[key] = tracer.wrap(span, registry[key])
    elif how == "function":
        original = getattr(module, what)
        shim = tracer.wrap(span, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, shim)
    else:
        cls_name, attr = what.split(".")
        cls = getattr(module, cls_name)
        if how == "method":
            setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr]))
            return
        getattr(cls, attr)  # the base must still declare the entry point
        for sub in _hierarchy(cls):
            fn = sub.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(sub, attr, tracer.wrap(span, fn))


def install(tracer: Tracer) -> List[str]:
    """Install every shim; returns the span names with a target that could
    not be found (``trace.missing``) — they read 0 in the per-layer
    metrics and never disturb the untraced numbers."""
    for name in _PRELOAD:
        importlib.import_module(name)
    missing: List[str] = []
    for span, how, module_name, what in TARGETS:
        try:
            _patch(tracer, span, how, module_name, what)
        except (ImportError, AttributeError, KeyError):
            if span not in missing:
                missing.append(span)
    return missing
