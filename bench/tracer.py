"""Per-layer timing from outside capsim: wrappers around its public names.

Coarse calls (config load, simulation run, serialization, checking,
sweeps) become spans with a name, start, end, parent and pass id, kept in
memory and written out when the run ends. Per-event calls (reachability
tests, strategy handlers) are too many for spans and are aggregated as a
count and a total time, charged to the innermost open span so that a
span's self time excludes them.

Each wrapped name is replaced in every ``capsim`` module that binds it,
because ``capsim.cli`` and ``capsim.harness`` import functions by name. A
target that no longer exists is reported as absent and skipped.

Bookkeeping done after a wrapped call returns (counting trace records,
reading config sizes) runs on a paused clock, so it is not billed to the
enclosing spans; only the cost of the wrappers themselves shows, as
``trace_overhead``.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

perf = time.perf_counter

# (module, attribute path) of every coarse call that becomes a span
SPAN_TARGETS = [
    ("capsim.config", "ScenarioConfig.from_dict"),
    ("capsim.partitions", "PartitionSchedule.max_partition_span"),
    ("capsim.kernel", "Simulation.run"),
    ("capsim.trace", "Trace.to_jsonl"),
    ("capsim.trace", "Trace.from_jsonl"),
    ("capsim.checker", "extract_history"),
    ("capsim.checker", "check"),
    ("capsim.checker", "min_consistency_bound"),
    ("capsim.harness", "frontier_sweep"),
]
REACHABLE = ("capsim.partitions", "PartitionSchedule.reachable")
HANDLERS = ("on_invoke", "on_message", "on_timer")
CLI_SPAN = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s", "inner_s")

    def __init__(self, name: str, start: float, parent: int | None, run: int):
        self.name, self.start, self.parent, self.run = name, start, parent, run
        self.end = start
        self.child_s = 0.0  # time covered by child spans
        self.inner_s = 0.0  # time in per-event calls made directly under this span

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.inner_s

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


class Tracer:
    """Installs the wrappers for one traced pass and collects what they see."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run = 0
        self._paused = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._in_handler = False
        self.span_targets = list(SPAN_TARGETS)
        self.begin_pass(0)

    # -- clock and spans ---------------------------------------------

    def clock(self) -> float:
        return perf() - self._paused

    def begin_pass(self, run: int) -> None:
        self.run = run
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.facts: dict = {}
        self.pass_start = len(self.spans)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _charge(self, name: str, dt: float) -> None:
        self.times[name] += dt
        self.counts[name] += 1
        if self._stack:
            self.spans[self._stack[-1]].inner_s += dt

    def pass_spans(self) -> list[Span]:
        return self.spans[self.pass_start:]

    # -- installing wrappers -------------------------------------------

    def _resolve(self, module: str, path: str):
        try:
            owner = importlib.import_module(module)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            return None, None, None
        if isinstance(owner, type):
            raw = owner.__dict__.get(name)
        else:
            raw = getattr(owner, name, None)
        return (owner, name, raw) if raw is not None else (None, None, None)

    def _replace(self, owner, name: str, raw, wrapper) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapper)
            return
        # a function: rebind it wherever a capsim module imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "capsim" or mod_name.startswith("capsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, attr, raw))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for module, path in self.span_targets:
            owner, name, raw = self._resolve(module, path)
            if owner is None:
                self._note_absent(f"{module}.{path}")
                continue
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._span_wrapper(func, path)
            self._replace(owner, name, raw, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        owner, name, raw = self._resolve(*REACHABLE)
        if owner is None:
            self._note_absent(".".join(REACHABLE))
        else:
            self._replace(owner, name, raw, self._reachable_wrapper(raw))
        self._install_handlers()

    def _install_handlers(self) -> None:
        try:
            strategies = importlib.import_module("capsim.strategies")
            base, send = strategies.StrategyNode, strategies.Send
        except (ImportError, AttributeError):
            self._note_absent("capsim.strategies handlers")
            return
        classes = [c for c in vars(strategies).values()
                   if isinstance(c, type) and issubclass(c, base)]
        for handler in HANDLERS:
            found = False
            for cls in classes:
                raw = cls.__dict__.get(handler)
                if raw is not None:
                    found = True
                    self._replace(cls, handler, raw, self._handler_wrapper(raw, handler, send))
            if not found:
                self._note_absent(f"capsim.strategies.*.{handler}")

    def _note_absent(self, target: str) -> None:
        if target not in self.absent:
            self.absent.append(target)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, func, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            t0 = perf()
            tracer._note(name, args, result)
            tracer._paused += perf() - t0
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _reachable_wrapper(self, func):
        tracer = self

        def reachable(*args, **kwargs):
            t0 = perf()
            ok = func(*args, **kwargs)
            tracer._charge("reachable", perf() - t0)
            if not ok:
                tracer.counts["refused"] += 1
            return ok

        reachable.__wrapped__ = func
        return reachable

    def _handler_wrapper(self, func, handler: str, send_type):
        tracer = self

        def on_event(*args, **kwargs):
            if tracer._in_handler:  # a subclass handler calling super()
                return func(*args, **kwargs)
            tracer._in_handler = True
            t0 = perf()
            try:
                actions = func(*args, **kwargs)
            finally:
                tracer._in_handler = False
                t1 = perf()
                tracer._charge("handler", t1 - t0)
            sends = sum(1 for a in actions if type(a) is send_type)
            tracer.counts["sends"] += sends
            tracer.counts[handler] += 1
            if handler == "on_timer":
                tracer.counts["timer_sends"] += sends
            tracer._paused += perf() - t1
            return actions

        on_event.__wrapped__ = func
        return on_event

    def _note(self, name: str, args: tuple, result) -> None:
        """Record the sizes each layer's cost depends on."""
        facts = self.facts
        if name == "ScenarioConfig.from_dict":
            outages = result.partitions.outages
            bounds = {o.start for o in outages} | {o.end for o in outages}
            facts["nodes"] = max(facts.get("nodes", 0), result.node_count)
            facts["ops"] = max(facts.get("ops", 0), len(result.workload))
            facts["outages"] = max(facts.get("outages", 0), len(outages))
            facts["boundaries"] = max(facts.get("boundaries", 0), len(bounds))
        elif name == "Simulation.run":
            self.counts.update("rec." + r["ev"] for r in result.records)
        elif name == "Trace.to_jsonl":
            self.counts["serialized_bytes"] += len(result)
        elif name == "Trace.from_jsonl":
            self.counts["parsed_bytes"] += len(args[1])
        elif name == "extract_history":
            writes = Counter(r.key for r in result.records if r.kind == "write")
            self.counts["reads"] += sum(1 for r in result.records if r.kind == "read")
            facts["max_writes_per_key"] = max(facts.get("max_writes_per_key", 0),
                                              max(writes.values(), default=0))
        elif name == "frontier_sweep":
            self.counts["rows"] += len(result)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for the pass just traced (see BENCHMARK.json)."""
    spans = tracer.pass_spans()
    c, t, f = tracer.counts, tracer.times, tracer.facts

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def self_time(name: str) -> float:
        return sum(s.self_s for s in spans if s.name == name)

    run_s = total("Simulation.run")
    events = c["rec.invoke"] + c["rec.deliver"] + c["rec.timer"]
    kernel_self = self_time("Simulation.run")
    handler_calls = c["handler"]
    serialize_s, parse_s = total("Trace.to_jsonl"), total("Trace.from_jsonl")
    check_s = total("check")
    return {
        "config.load_s": total("ScenarioConfig.from_dict"),
        "config.ops": f.get("ops", 0),
        "partitions.reachable_calls": c["reachable"],
        "partitions.reachable_s": t["reachable"],
        "partitions.reachable_us": _ratio(t["reachable"], c["reachable"]) * 1e6,
        "partitions.refused_ratio": _ratio(c["refused"], c["reachable"]),
        "partitions.span_s": total("PartitionSchedule.max_partition_span"),
        "partitions.outages": f.get("outages", 0),
        "partitions.boundaries": f.get("boundaries", 0),
        "kernel.run_s": run_s,
        "kernel.self_s": kernel_self,
        "kernel.events": events,
        "kernel.events_per_s": _ratio(events, run_s),
        "kernel.self_us_per_event": _ratio(kernel_self, events) * 1e6,
        "kernel.sends": c["rec.send"],
        "kernel.drops": c["rec.drop"],
        "kernel.timers": c["rec.timer"],
        "strategies.calls": handler_calls,
        "strategies.s": t["handler"],
        "strategies.us_per_call": _ratio(t["handler"], handler_calls) * 1e6,
        "strategies.sends_per_op": _ratio(c["sends"], c["on_invoke"]),
        "strategies.timer_sends": c["timer_sends"],
        "trace.serialize_s": serialize_s,
        "trace.parse_s": parse_s,
        "trace.bytes": c["serialized_bytes"],
        "trace.serialize_mb_per_s": _ratio(c["serialized_bytes"] / 1e6, serialize_s),
        "trace.parse_mb_per_s": _ratio(c["parsed_bytes"] / 1e6, parse_s),
        "checker.extract_s": total("extract_history"),
        "checker.check_s": check_s,
        "checker.min_tc_s": total("min_consistency_bound"),
        "checker.reads": c["reads"],
        "checker.max_writes_per_key": f.get("max_writes_per_key", 0),
        "checker.check_us_per_read": _ratio(check_s, c["reads"]) * 1e6 if check_s else 0.0,
        "harness.sweep_s": total("frontier_sweep"),
        "harness.rows": c["rows"],
        "harness.self_s": self_time("frontier_sweep"),
        "cli.self_s": self_time(CLI_SPAN),
    }


def span_problems(spans: list[Span]) -> list[str]:
    """Self times must be non-negative and children must fit in their parent."""
    problems = []
    for i, s in enumerate(spans):
        if s.self_s < 0:
            problems.append(f"span {i} {s.name}: negative self time {s.self_s:.6f}")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name}: outside parent {p.name}")
    return problems
