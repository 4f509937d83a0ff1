"""Host-time spans around calls into the ``repro`` layers.

The benchmark records these from its own side: :func:`install` replaces a
fixed list of public functions and methods of the program with wrappers
that open a span on entry and close it on exit. Nothing under ``src/``
knows about them.

Self time. Every interval between two consecutive span events (an entry
or an exit, on any thread) is charged to the innermost open span of the
thread that produced the earlier event, or to ``window`` when that
thread has no span open. Within the measured window the charged intervals
tile the window exactly (integer nanoseconds), so the per-layer self
times sum to the window's root span. The service runs job bodies on
worker threads, but its ``Cooperator`` lets only one of them run at a
time, and every baton hand-off returns through a wrapped call
(``Cooperator.await_event`` on a worker, ``Cooperator.pump`` on the
owner), so the thread that emitted the last event is the one running.
The one exception, a new worker's start, charges the interval up to
its first span to the owner's ``pump`` span.

Work the simulation kernel runs from its own callbacks (scheduler
processes, flow-completion timers and the allocator re-solves they
trigger) has no public entry point to wrap: it lands in ``sim``'s self
time, under ``Environment.run`` or ``Environment.step``.

Process-style generator functions (``Network.transfer``,
``CommFabric.send``/``recv``, ``MutableObjectManager.merge``) are timed
per resumption, so time spent suspended is not counted.

Spans are kept in memory as per-function totals (calls, self time) and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: the layers with spans, as named by the ``repro`` packages; ``data``
#: and ``faults`` get counts only, their few window calls are charged to
#: the span that makes them
LAYERS = ("sim", "cluster", "comm", "core", "rdd", "ml", "serde", "service")
#: time inside the measured window but outside every layer span
ROOT = "window"

_clock = time.perf_counter_ns
_ident = threading.get_ident


class SpanRecorder:
    """Per-thread span stacks and per-function self-time totals."""

    def __init__(self) -> None:
        self.on = False
        #: "layer:function" -> nanoseconds charged while innermost
        self.self_ns: Dict[str, int] = {ROOT: 0}
        #: "layer:function" -> calls (or resumptions, for generators)
        self.calls: Dict[str, int] = {}
        self.window_ns = 0
        self._stacks: Dict[int, List[str]] = {}
        self._running = 0
        self._last = 0
        self._began = 0

    # ------------------------------------------------------------- window
    def start(self) -> None:
        now = _clock()
        self._stacks = {_ident(): [ROOT]}
        self._running = _ident()
        self._began = self._last = now
        self.on = True

    def stop(self) -> None:
        self._event(_clock())
        self.on = False
        self.window_ns = self._last - self._began

    # -------------------------------------------------------------- spans
    def _event(self, now: int) -> List[str]:
        """Charge the gap since the last event; return this thread's stack."""
        key = self._stacks[self._running][-1]
        self.self_ns[key] = self.self_ns.get(key, 0) + (now - self._last)
        self._last = now
        ident = _ident()
        self._running = ident
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = [ROOT]
        return stack

    def enter(self, key: str) -> None:
        self._event(_clock()).append(key)
        self.calls[key] = self.calls.get(key, 0) + 1

    def exit(self) -> None:
        self._event(_clock()).pop()

    # ------------------------------------------------------------ results
    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (and ``window``) for the last window."""
        out = {name: 0 for name in LAYERS + (ROOT,)}
        for key, ns in self.self_ns.items():
            out[key.split(":", 1)[0]] += ns
        return {name: ns / 1e9 for name, ns in out.items()}

    def calls_of(self, *keys: str) -> int:
        return sum(self.calls.get(key, 0) for key in keys)


def _span_function(rec: SpanRecorder, key: str, fn: Callable) -> Callable:
    def spanned(*args: Any, **kwargs: Any) -> Any:
        if not rec.on:
            return fn(*args, **kwargs)
        rec.enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    return functools.wraps(fn)(spanned)


def _span_generator(rec: SpanRecorder, key: str, fn: Callable) -> Callable:
    """Wrap a generator function so each resumption is one span."""

    def resumed(gen):
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            if rec.on:
                rec.enter(key)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if rec.on:
                    rec.exit()
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    def spanned(*args: Any, **kwargs: Any) -> Any:
        return resumed(fn(*args, **kwargs))

    return functools.wraps(fn)(spanned)


class Probes:
    """Counters the wrappers read from arguments and results."""

    def __init__(self) -> None:
        self.peak_active_flows = 0
        #: host time inside DatasetSpec.generate, set-up included
        self.generate_ns = 0
        #: JobRecords the service admitted during the window
        self.job_records: List[Any] = []


def _patch_method(rec: SpanRecorder, layer: str, cls: type, name: str,
                  after: Optional[Callable] = None) -> None:
    """Span ``cls.name`` where it is defined, and every override of it in
    that class's subclasses."""
    todo = [next(c for c in cls.__mro__ if name in c.__dict__)]
    while todo:
        owner = todo.pop()
        todo.extend(owner.__subclasses__())
        if name not in owner.__dict__:
            continue
        raw = owner.__dict__[name]
        wrap_kind = type(raw) if isinstance(
            raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if wrap_kind else raw
        key = f"{layer}:{owner.__name__}.{name}"
        if inspect.isgeneratorfunction(fn):
            spanned = _span_generator(rec, key, fn)
        else:
            spanned = _span_function(rec, key, fn)
        if after is not None:
            spanned = after(spanned)
        setattr(owner, name, wrap_kind(spanned) if wrap_kind else spanned)


def _patch_function(rec: SpanRecorder, layer: str, module: Any,
                    name: str) -> None:
    """Span ``module.name`` everywhere ``repro`` modules hold a reference
    to it (``from x import f`` copies the binding)."""
    fn = getattr(module, name)
    spanned = _span_function(rec, f"{layer}:{name}", fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, spanned)


def install(rec: SpanRecorder) -> Probes:
    """Wrap the layers' public entry points; return the argument probes."""
    from repro.cluster.flows import FlowNetwork
    from repro.cluster.network import Network
    from repro.comm.fabric import CommFabric
    from repro.core import aggregation, imm, sai
    from repro.data.registry import DatasetSpec
    from repro.ml import aggregators, classification, gradient, lda
    from repro.rdd import costing, tasks
    from repro.serde import sizeof
    from repro.service.reactor import Cooperator
    from repro.service.server import JobServer
    from repro.sim.core import Environment

    probes = Probes()
    method = functools.partial(_patch_method, rec)

    method("sim", Environment, "run")
    method("sim", Environment, "step")

    def track_flows(flow: Callable) -> Callable:
        def flow_probe(self, *args: Any, **kwargs: Any) -> Any:
            event = flow(self, *args, **kwargs)
            if rec.on and self.active_flows > probes.peak_active_flows:
                probes.peak_active_flows = self.active_flows
            return event
        return flow_probe

    method("cluster", FlowNetwork, "flow", after=track_flows)
    method("cluster", FlowNetwork, "set_link_capacity")
    method("cluster", Network, "transfer")
    method("cluster", Network, "transfer_many")

    for name in ("send", "isend", "recv"):
        method("comm", CommFabric, name)

    _patch_function(rec, "core", sai, "split_aggregate")
    _patch_function(rec, "core", aggregation, "tree_aggregate")
    method("core", imm.MutableObjectManager, "merge")

    method("rdd", tasks.Task, "run")

    method("ml", gradient.Gradient, "add_to")
    for name in ("merge", "split", "concat"):
        method("ml", aggregators.FlatAggregator, name)
    method("ml", aggregators.AggregatorSegment, "merge")
    method("ml", classification.LogisticRegressionWithSGD, "train")
    method("ml", lda.LDA, "fit")

    # The trainers hand their per-element folds to the rdd layer wrapped
    # in ``Costed``; those closures are ml code. Their virtual-cost
    # functions are left to the rdd layer that charges them.
    costed_init = costing.Costed.__init__

    def costed_probe(self, fn: Callable, cost_fn: Any) -> None:
        costed_init(self, fn, cost_fn)
        if getattr(fn, "__module__", "").startswith("repro.ml"):
            self.fn = _span_function(rec, "ml:seq_op", fn)

    costing.Costed.__init__ = costed_probe

    _patch_function(rec, "serde", sizeof, "sim_sizeof")

    generate = DatasetSpec.generate

    def generate_probe(self: Any) -> Any:
        began = _clock()
        try:
            return generate(self)
        finally:
            probes.generate_ns += _clock() - began

    DatasetSpec.generate = generate_probe

    def track_jobs(submit: Callable) -> Callable:
        def submit_probe(self, *args: Any, **kwargs: Any) -> Any:
            record = submit(self, *args, **kwargs)
            if rec.on:
                probes.job_records.append(record)
            return record
        return submit_probe

    method("service", JobServer, "submit", after=track_jobs)
    method("service", JobServer, "wait")
    method("service", Cooperator, "pump")
    method("service", Cooperator, "await_event")
    return probes
