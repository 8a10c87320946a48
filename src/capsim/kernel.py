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

import heapq
from dataclasses import dataclass

from . import trace as tr
from .config import ClientOp, ScenarioConfig
from .strategies import Respond, Send, SetTimer, StrategyNode, build_node

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
        return f"handling message {payload.seq} at tick {time}"
    node_id, timer_id = payload
    return f"handling timer {timer_id!r} on node {node_id} at tick {time}"


@dataclass(frozen=True)
class Message:
    """A payload in flight between two distinct nodes."""

    src: int
    dst: int
    payload: dict
    seq: int  # message id, unique per run


class Simulation:
    """One single-threaded run of a scenario up to its horizon.

    ``nodes`` replaces the nodes the config's strategy would build, one
    per node id; the harness hands in deadline-probing nodes this way.
    """

    def __init__(self, config: ScenarioConfig, nodes: list[StrategyNode] | None = None):
        self.config = config
        self.schedule = config.partitions
        self.nodes: list[StrategyNode] = nodes or [
            build_node(config.strategy, n, config.node_count)
            for n in range(config.node_count)
        ]
        self._heap: list[tuple[int, int, int, object]] = []
        self._sched_seq = 0
        self._msg_seq = 0
        self.trace = tr.Trace()
        # a line's seq is its position in the trace
        self._lines = self.trace.lines
        self._append = self._lines.append
        self._answered: set[int] = set()
        self._now = 0
        self._ran = False

    # -- scheduling ---------------------------------------------------

    def _push(self, time: int, tag: int, payload: object) -> None:
        heapq.heappush(self._heap, (time, self._sched_seq, tag, payload))
        self._sched_seq += 1

    # -- action execution ---------------------------------------------

    def _do_respond(self, action: Respond) -> None:
        if action.op_id in self._answered:
            raise SimulationError(f"duplicate response for op {action.op_id}")
        self._answered.add(action.op_id)
        now, seq = self._now, len(self._lines)
        self._append(tr.respond_line(now, seq, action.op_id, action.value))
        self.trace.operations.append((seq, "respond", (now, action.op_id, action.value)))

    def _do_send(self, node_id: int, action: Send) -> None:
        dst, now = action.dst, self._now
        if dst == node_id:
            raise SimulationError(f"node {node_id} sent to itself")
        if not 0 <= dst < self.config.node_count:
            raise SimulationError(f"unknown destination {dst}")
        msg_id = self._msg_seq
        self._msg_seq = msg_id + 1
        seq = len(self._lines)
        self._append(tr.send_line(now, seq, node_id, dst, msg_id))
        if self.schedule.reachable(now, node_id, dst):
            msg = Message(node_id, dst, action.payload, msg_id)
            self._push(now + self.config.message_latency, _DELIVER, msg)
        else:  # a dropped send never becomes a Message
            self._append(tr.drop_line(now, seq + 1, node_id, dst, msg_id))

    def _do_set_timer(self, node_id: int, action: SetTimer) -> None:
        if action.delay < 1:
            raise SimulationError(f"timer delay must be >= 1 tick, got {action.delay}")
        self._push(self._now + action.delay, _TIMER, (node_id, action.timer_id))

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
        try:  # an invalid action raises without naming the event; add it here
            for action in actions:
                if isinstance(action, Respond):
                    self._do_respond(action)
                elif isinstance(action, Send):
                    self._do_send(node_id, action)
                elif isinstance(action, SetTimer):
                    self._do_set_timer(node_id, action)
                else:
                    raise SimulationError(f"unknown action {action!r}")
        except SimulationError as exc:
            raise SimulationError(f"{exc} while {_context(event)}") from None

    # -- main loop ----------------------------------------------------

    def run(self) -> tr.Trace:
        if self._ran:
            raise SimulationError("a Simulation object runs once; build a new one")
        self._ran = True
        for node in self.nodes:
            self._dispatch(node.node_id, (0, -1, _INIT, node.node_id), node.on_init)
        workload, quoted = self.config.workload, self.trace.quoted
        lines, append, add_operation = self._lines, self._append, self.trace.operations.append
        wi = 0
        while True:
            # inject client requests lazily so that, at equal ticks, they
            # dispatch after already-scheduled deliveries and timers
            while wi < len(workload) and (
                not self._heap or workload[wi].t <= self._heap[0][0]
            ):
                self._push(workload[wi].t, _INVOKE, workload[wi])
                wi += 1
            if not self._heap or self._heap[0][0] >= self.config.horizon:
                break
            event = heapq.heappop(self._heap)
            time, _, tag, payload = event
            self._now = time
            if tag == _INVOKE:
                op: ClientOp = payload
                seq, op_id = len(lines), op.op_id
                append(tr.invoke_line(time, seq, op_id, op.node, op.kind, op.key, op.val, quoted))
                add_operation((seq, "invoke", (time, op_id, op.node, op.kind, op.key, op.val)))
                node = self.nodes[op.node]
                self._dispatch(op.node, event, node.on_invoke, op, time)
            elif tag == _DELIVER:
                msg: Message = payload
                append(tr.deliver_line(time, len(lines), msg.src, msg.dst, msg.seq))
                node = self.nodes[msg.dst]
                self._dispatch(
                    msg.dst, event, node.on_message, msg.payload, msg.src, time
                )
            else:
                node_id, timer_id = payload
                append(tr.timer_line(time, len(lines), node_id, timer_id, quoted))
                node = self.nodes[node_id]
                self._dispatch(node_id, event, node.on_timer, timer_id, time)
        horizon = self._now = self.config.horizon
        # messages still in flight never arrive inside the observed window;
        # settle them as drops so every send has exactly one disposition
        while self._heap:
            _, _, tag, payload = heapq.heappop(self._heap)
            if tag == _DELIVER:
                append(tr.drop_line(horizon, len(lines), payload.src, payload.dst, payload.seq))
        for op in workload:
            if op.op_id not in self._answered:
                add_operation((len(lines), "unanswered", (horizon, op.op_id)))
                append(tr.unanswered_line(horizon, len(lines), op.op_id))
        return self.trace


def run_scenario(config: ScenarioConfig) -> tr.Trace:
    """Run one scenario and return its trace."""
    return Simulation(config).run()
