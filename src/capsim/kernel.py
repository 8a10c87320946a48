"""Deterministic virtual-time event loop.

Time is a non-negative integer tick count. The queue pops events in
nondecreasing (tick, seq) order, where seq is assigned at scheduling
time, so identical configurations replay identically byte for byte.

Scheduling rules the strategies rely on:

* a message sent at tick t while its destination is path-reachable is
  delivered at t + message_latency; otherwise it is dropped silently
  at send time and only a drop record remains (no sender feedback),
* the reachability test happens once, at send time,
* messages still in flight when the horizon closes settle as drops at
  the horizon, so every send has exactly one disposition in the trace,
* timers fire delay >= 1 ticks later, in registration order on ties,
* client requests scheduled for tick t dispatch after the deliveries
  and timer firings already in flight for t, which is what makes a
  one-tick-latency hand trace come out the obvious way.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .config import ClientOp, ScenarioConfig
from .strategies import Respond, Send, SetTimer, StrategyNode, build_node
from .trace import (
    Trace, deliver_line, drop_line, invoke_line, respond_line, send_line, timer_line,
    unanswered_line,
)

_DELIVER, _TIMER, _INVOKE, _INIT = 0, 1, 2, 3


class SimulationError(RuntimeError):
    """A strategy misbehaved; the message names the triggering event."""


def _context(event: tuple) -> str:
    """Name a queue event for an error message; only failures build one."""
    time, _, tag, payload = event
    if tag == _INIT:
        return f"initializing node {payload}"
    if tag == _INVOKE:
        return f"handling invoke of op {payload.op_id} at tick {time}"
    if tag == _DELIVER:
        return f"handling message {payload[3]} at tick {time}"
    node_id, timer_id = payload
    return f"handling timer {timer_id!r} on node {node_id} at tick {time}"


class Simulation:
    """One single-threaded run of a scenario up to its horizon.

    ``nodes`` replaces the nodes the config's strategy would build, one
    per node id, in id order; the harness hands in deadline-probing nodes
    this way.

    A queued event is ``(tick, seq, tag, payload)``. A delivery's payload
    is ``(src, dst, message payload, message id)``, an invoke's its
    ``ClientOp``, a timer's ``(node id, timer id)``.
    """

    def __init__(self, config: ScenarioConfig, nodes: list[StrategyNode] | None = None):
        self.config = config
        self.schedule = config.partitions
        count = config.node_count
        if nodes is None:
            nodes = [build_node(config.strategy, n, count) for n in range(count)]
        elif len(nodes) != count:
            raise SimulationError(f"expected {count} nodes, got {len(nodes)}")
        for i, node in enumerate(nodes):
            if node.node_id != i:
                raise SimulationError(f"nodes[{i}] has node_id {node.node_id}")
        self.nodes: list[StrategyNode] = nodes
        self._node_count, self._latency = count, config.message_latency
        self._heap: list[tuple[int, int, int, object]] = []
        self._sched_seq = 0
        self._msg_seq = 0
        self.trace = Trace()
        # a line's seq is its position in the trace
        self._lines = self.trace.lines
        self._append = self._lines.append
        self._add_operation = self.trace.operations.append
        self._answered: set[int] = set()
        self._now = 0
        self._ran = False

    def _dispatch(self, node_id: int, event: tuple, handler, *args) -> None:
        """Call a node's handler for ``event`` and carry out its actions."""
        try:
            actions = handler(*args)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"strategy failed while {_context(event)}: {exc}"
            ) from exc
        now, lines, append = self._now, self._lines, self._append
        try:  # an invalid action raises without naming the event; add it here
            for action in actions:  # the most frequent kinds first
                if isinstance(action, Send):
                    dst = action.dst
                    if dst == node_id:
                        raise SimulationError(f"node {node_id} sent to itself")
                    if not 0 <= dst < self._node_count:
                        raise SimulationError(f"unknown destination {dst}")
                    msg_id, seq = self._msg_seq, len(lines)
                    self._msg_seq = msg_id + 1
                    append(send_line(now, seq, node_id, dst, msg_id))
                    if self._reachable(now, node_id, dst):
                        heappush(self._heap, (now + self._latency, self._sched_seq, _DELIVER,
                                              (node_id, dst, action.payload, msg_id)))
                        self._sched_seq += 1
                    else:  # a dropped send is never queued
                        append(drop_line(now, seq + 1, node_id, dst, msg_id))
                elif isinstance(action, SetTimer):
                    if action.delay < 1:
                        raise SimulationError(f"timer delay must be >= 1 tick, got {action.delay}")
                    heappush(self._heap, (now + action.delay, self._sched_seq, _TIMER,
                                          (node_id, action.timer_id)))
                    self._sched_seq += 1
                elif isinstance(action, Respond):
                    op_id, value = action.op_id, action.value
                    if op_id in self._answered:
                        raise SimulationError(f"duplicate response for op {op_id}")
                    self._answered.add(op_id)
                    seq = len(lines)
                    append(respond_line(now, seq, op_id, value))
                    self._add_operation((seq, "respond", (now, op_id, value)))
                else:
                    raise SimulationError(f"unknown action {action!r}")
        except SimulationError as exc:
            raise SimulationError(f"{exc} while {_context(event)}") from None

    # -- main loop ----------------------------------------------------

    def run(self) -> Trace:
        if self._ran:
            raise SimulationError("a Simulation object runs once; build a new one")
        self._ran = True
        # looked up here and per event, so that wrappers installed on the
        # schedule's or the nodes' classes after construction take effect
        self._reachable = self.schedule.reachable
        for node in self.nodes:
            self._dispatch(node.node_id, (0, -1, _INIT, node.node_id), node.on_init)
        workload, horizon = self.config.workload, self.config.horizon
        quoted = self.trace.quoted
        heap, nodes, dispatch = self._heap, self.nodes, self._dispatch
        lines, append, add_operation = self._lines, self._append, self._add_operation
        wi = 0
        while True:
            # inject client requests lazily so that, at equal ticks, they
            # dispatch after already-scheduled deliveries and timers
            while wi < len(workload) and (not heap or workload[wi].t <= heap[0][0]):
                heappush(heap, (workload[wi].t, self._sched_seq, _INVOKE, workload[wi]))
                self._sched_seq += 1
                wi += 1
            if not heap or heap[0][0] >= horizon:
                break
            event = heappop(heap)
            time, _, tag, payload = event
            self._now = time
            if tag == _DELIVER:
                src, dst, body, msg_id = payload
                append(deliver_line(time, len(lines), src, dst, msg_id))
                dispatch(dst, event, nodes[dst].on_message, body, src, time)
            elif tag == _TIMER:
                node_id, timer_id = payload
                append(timer_line(time, len(lines), node_id, timer_id, quoted))
                dispatch(node_id, event, nodes[node_id].on_timer, timer_id, time)
            else:
                op: ClientOp = payload
                seq, op_id = len(lines), op.op_id
                append(invoke_line(time, seq, op_id, op.node, op.kind, op.key, op.val, quoted))
                add_operation((seq, "invoke", (time, op_id, op.node, op.kind, op.key, op.val)))
                dispatch(op.node, event, nodes[op.node].on_invoke, op, time)
        self._now = horizon
        # messages still in flight never arrive inside the observed window;
        # settle them as drops so every send has exactly one disposition
        while heap:
            _, _, tag, payload = heappop(heap)
            if tag == _DELIVER:
                src, dst, _, msg_id = payload
                append(drop_line(horizon, len(lines), src, dst, msg_id))
        for op in workload:
            if op.op_id not in self._answered:
                add_operation((len(lines), "unanswered", (horizon, op.op_id)))
                append(unanswered_line(horizon, len(lines), op.op_id))
        return self.trace


def run_scenario(config: ScenarioConfig) -> Trace:
    """Run one scenario and return its trace."""
    return Simulation(config).run()
