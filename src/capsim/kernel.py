"""Deterministic virtual-time event loop.

Time is a non-negative integer tick count. Queued events wait in one
FIFO list per tick, a dict from tick to list plus a heap of the ticks
that hold one, so queueing an event costs a dict lookup and an append.
The loop takes the ticks in order; each runs its queued deliveries and
timer firings in the order they were scheduled, then that tick's client
requests in workload order, so identical configurations replay
identically byte for byte. Each line is recorded as its tick's stamp,
formatted once per tick, its middle and its last value; trace.py joins
them into text only when something writes or reads it. The operation
tuples a history is built from are recorded only for a caller that asks
for them: ``simulate`` writes lines and builds no history.

Scheduling rules the strategies rely on:

* a message sent at tick t while its destination is path-reachable is
  delivered at t + message_latency; otherwise it is dropped silently
  at send time and only a drop record remains (no sender feedback),
* the reachability test happens once, at send time,
* messages still in flight when the horizon closes settle as drops at
  the horizon, in order of their due tick and then in queue order, so
  every send has exactly one disposition in the trace,
* timers fire delay >= 1 ticks later, in registration order on ties,
* an action field the trace writes must have its type (an integer
  destination and delay, bool excluded, a string timer id), and a
  response must name an op an invoke has dispatched, or the run is
  refused before the action records a line,
* client requests scheduled for tick t dispatch after the deliveries
  and timer firings already in flight for t, which is what makes a
  one-tick-latency hand trace come out the obvious way.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .config import OPT, ClientOp, ScenarioConfig
from .errors import SimulationError
from .strategies import Respond, Send, SetTimer, StrategyNode, build_node
from .trace import HEADS, STAMP, TextCache, Trace

_DELIVER, _TIMER, _INVOKE, _INIT = 0, 1, 2, 3
# A line's middle is its kind's head in trace.py filled with values that are exact
# ints the loop or the config checked or the trace's quoted strings: an operation's
# per line, a transport head once per link, a timer's once per node and id.
INVOKE_PARTS, RESPOND_PARTS = (  # split at its %d and %s slots
    HEADS[ev].replace("%s", "%d").split("%d") for ev in ("invoke", "respond")
)


def _context(now: int, event: tuple) -> str:
    """Name a queued event for an error message; only failures build one."""
    tag = event[0]
    if tag == _INIT:
        return f"initializing node {event[1]}"
    if tag == _INVOKE:
        return f"handling invoke of op {event[1].op_id} at tick {now}"
    if tag == _DELIVER:
        return f"handling message {event[4]} at tick {now}"
    return f"handling timer {event[2]!r} on node {event[1]} at tick {now}"


def _refused(message: str, now: int, event: tuple) -> SimulationError:
    """An invalid action's error, naming the event whose handler returned it."""
    return SimulationError(f"{message} while {_context(now, event)}")


class Simulation:
    """One single-threaded run of a scenario up to its horizon.

    ``nodes`` replaces the nodes the config's strategy would build, one
    per node id, in id order; the harness hands in deadline-probing nodes
    this way.

    A queued event is a tuple led by its kind: ``(_DELIVER, src, dst,
    message payload, message id)``, ``(_TIMER, node id, timer id)``,
    ``(_INVOKE, ClientOp)`` or ``(_INIT, node id)``.
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
        self.trace = Trace()
        self._ran = False

    def run(self, *, history: bool = True) -> Trace:
        """Run to the horizon and return the trace; every line is recorded.

        ``history`` also records the operation tuples ``extract_history``
        reads from the trace; without it ``trace.operations`` is None.
        """
        if self._ran:
            raise SimulationError("a Simulation object runs once; build a new one")
        self._ran = True
        # reachable is looked up per run and each handler per event, so that
        # wrappers installed on the schedule's or the nodes' classes after
        # construction take effect
        reachable = self.schedule.reachable
        nodes, count, latency = self.nodes, self.config.node_count, self.config.message_latency
        workload, horizon = self.config.workload, self.config.horizon
        trace = self.trace
        fields, quoted = trace.fields, trace.quoted
        if history:
            add_operation = trace.operations.append
        else:
            trace.operations = None
        record = fields.extend  # a line's stamp, middle and last value; its seq is its index
        # per run, like quoted: each link's transport heads, keyed src * count
        # + dst, and each timer's middle, keyed by its (equal) timer events
        sends, delivers, drops = (TextCache(lambda link, ev=ev: HEADS[ev] % divmod(link, count))
                                  for ev in ("send", "deliver", "drop"))
        timers = TextCache(lambda event: HEADS["timer"] % event[1] + quoted[event[2]])
        inv_op, inv_node, inv_kind, inv_key, inv_val = INVOKE_PARTS
        resp_op, resp_val = RESPOND_PARTS
        invoked: set[int] = set()
        answered: set[int] = set()
        # one FIFO list of events per tick, and a heap of the ticks that have one
        buckets: dict[int, list[tuple]] = {0: [(_INIT, node.node_id) for node in nodes]}
        ticks = [0]
        msg_id = wi = 0
        while True:
            if wi < len(workload) and (not ticks or workload[wi].t < ticks[0]):
                now, events = workload[wi].t, []
            elif ticks and ticks[0] < horizon:
                now = heappop(ticks)
                events = buckets.pop(now)
            else:
                break
            stamp = STAMP % now
            # the tick's client requests dispatch after the events queued for it
            while wi < len(workload) and workload[wi].t == now:
                events.append((_INVOKE, workload[wi]))
                wi += 1
            for event in events:
                tag = event[0]
                try:  # one handler call per event; the line recorded before it cannot raise
                    if tag == _DELIVER:
                        _, src, node_id, body, msg = event
                        record((stamp, delivers[src * count + node_id], msg))
                        actions = nodes[node_id].on_message(body, src, now)
                    elif tag == _TIMER:
                        _, node_id, timer_id = event
                        record((stamp, timers[event], ""))
                        actions = nodes[node_id].on_timer(timer_id, now)
                    elif tag == _INVOKE:
                        op: ClientOp = event[1]
                        op_id, node_id, kind, val = op.op_id, op.node, op.kind, op.val
                        record((stamp, f"{inv_op}{op_id}{inv_node}{node_id}{inv_kind}{quoted[kind]}"
                                       f"{inv_key}{quoted[op.key]}{inv_val}", "null" if val is None else val))
                        if history:
                            add_operation(("invoke", (now, op_id, node_id, kind, op.key, val)))
                        invoked.add(op_id)
                        actions = nodes[node_id].on_invoke(op, now)
                    else:
                        node_id = event[1]
                        actions = nodes[node_id].on_init()
                except (SimulationError, MemoryError):  # out of memory is no strategy's fault
                    raise
                except Exception as exc:
                    raise SimulationError(
                        f"strategy failed while {_context(now, event)}: {exc}"
                    ) from exc
                for action in actions:  # the most frequent kinds first
                    kind = type(action)
                    if kind is Send:
                        dst = action.dst
                        if type(dst) is not int or not 0 <= dst < count:  # a bool is no node id
                            raise _refused(f"unknown destination {dst!r}", now, event)
                        if dst == node_id:
                            raise _refused(f"node {node_id} sent to itself", now, event)
                        sent, msg_id = msg_id, msg_id + 1
                        record((stamp, sends[node_id * count + dst], sent))
                        if not reachable(now, node_id, dst):  # a dropped send is never queued
                            record((stamp, drops[node_id * count + dst], sent))
                            continue
                        queued, at = (_DELIVER, node_id, dst, action.payload, sent), now + latency
                    elif kind is SetTimer:
                        delay, timer_id = action.delay, action.timer_id
                        if type(delay) is not int or delay < 1:
                            raise _refused(f"timer delay must be an integer >= 1 tick, "
                                           f"got {delay!r}", now, event)
                        if type(timer_id) is not str:
                            raise _refused(f"timer id must be a string, got {timer_id!r}",
                                           now, event)
                        queued, at = (_TIMER, node_id, timer_id), now + delay
                    elif kind is Respond:
                        op_id, value = action.op_id, action.value
                        if type(op_id) is not int or op_id not in invoked:  # a bool is no op id
                            raise _refused(f"response for unknown op {op_id!r}", now, event)
                        if op_id in answered:
                            raise _refused(f"duplicate response for op {op_id}", now, event)
                        if type(value) not in OPT:
                            raise _refused(f"response value for op {op_id} must be an integer "
                                           f"or null, got {value!r}", now, event)
                        answered.add(op_id)
                        record((stamp, f"{resp_op}{op_id}{resp_val}", "null" if value is None else value))
                        if history:
                            add_operation(("respond", (now, op_id, value)))
                        continue
                    else:
                        raise _refused(f"unknown action {action!r}", now, event)
                    bucket = buckets.get(at)
                    if bucket is None:
                        buckets[at] = [queued]
                        heappush(ticks, at)
                    else:
                        bucket.append(queued)
        # messages still in flight never arrive inside the observed window;
        # settle them as drops so every send has exactly one disposition
        stamp = STAMP % horizon
        for tick in sorted(buckets):
            for event in buckets[tick]:
                if event[0] == _DELIVER:
                    record((stamp, drops[event[1] * count + event[2]], event[4]))
        for op in workload:
            if op.op_id not in answered:
                if history:
                    add_operation(("unanswered", (horizon, op.op_id)))
                record((stamp, HEADS["unanswered"], op.op_id))
        return trace


def run_scenario(config: ScenarioConfig) -> Trace:
    """Run one scenario and return its trace."""
    return Simulation(config).run()
