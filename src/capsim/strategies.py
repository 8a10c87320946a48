"""Replication strategies for a keyed last-writer-wins register service.

Each node runs one strategy state machine. Handlers are pure in the
simulation sense: they take the current tick plus an input (client
request, message, timer) and return a list of actions for the kernel
to execute. Two node classes cover the staleness/latency spectrum:

* LocalFirst answers every request from local state immediately and
  propagates writes via broadcast plus periodic anti-entropy digests.
  Responses are instant; reads can be stale for as long as a partition
  plus one gossip period lasts.
* ``RoundNode`` runs a round per request, retransmitting into dead links
  until every peer has acknowledged. Its one knob is the response
  deadline D: HybridDeadline(D) answers at ``now + D`` with whatever has
  arrived if the round is still open, trading bounded staleness for
  bounded latency, and SyncAll, with no deadline, answers only when the
  round completes: fresh reads, and responses that can stall for a whole
  partition.

``DeadlineProbeNode`` is a SyncAll ``RoundNode`` that notes, in the same
run, what HybridDeadline would answer at each of many deadlines; the
frontier sweep runs it. Its rounds are ``_Probe``s, which carry the notes.

Registers resolve conflicting writes last-writer-wins: versions are
ordered lexicographically by (write tick, writer id, per-writer seq)
and merges never move a key backwards.

LocalFirst gossips digests, ``{"entries": [(key, val, ver), ...]}``, and
a write's broadcast is the one-entry digest of that write. A round sends
each peer one ``req`` (its ``ver`` None for a read), and each peer answers
with one ``rep`` carrying its cell after any merge. A deadline probe
retransmits one ``{"type": "batch", "msgs": [req, ...]}`` per peer, holding
the requests still waiting on that peer in round order, and the peer
answers with one batch of the replies. Payloads live in memory only (the
trace never holds one) and carry versions as tuples.
One payload may be shared by every send and every retransmit of a round,
and an idle node's timer re-arm is one action list built once, so a
handler must never mutate a payload it receives or an action list it is
given.
"""

from __future__ import annotations

from bisect import bisect_right

from .config import StrategyParams

# version triple: (write_tick, writer node id, per-writer sequence)
Version = tuple[int, int, int]


class Respond:
    __slots__ = ("op_id", "value")

    def __init__(self, op_id: int, value: int | None):
        self.op_id, self.value = op_id, value


class Send:
    __slots__ = ("dst", "payload")

    def __init__(self, dst: int, payload: dict):
        self.dst, self.payload = dst, payload


class SetTimer:
    __slots__ = ("delay", "timer_id")

    def __init__(self, delay: int, timer_id: str):
        self.delay, self.timer_id = delay, timer_id


Action = Respond | Send | SetTimer


class RegisterMap:
    """Per-key (value, version) store with monotone last-writer-wins merge."""

    def __init__(self) -> None:
        self._cells: dict[str, tuple[int, Version]] = {}

    def merge(self, key: str, value: int, version: Version) -> bool:
        """Adopt (value, version) when it outranks the current cell."""
        current = self._cells.get(key)
        if current is not None and current[1] >= version:
            return False
        self._cells[key] = (value, version)
        return True

    def get(self, key: str) -> tuple[int | None, Version | None]:
        cell = self._cells.get(key)
        if cell is None:
            return None, None
        return cell

    def value(self, key: str) -> int | None:
        return self.get(key)[0]

    def items(self) -> list[tuple[str, int, Version]]:
        return [(k, v, ver) for k, (v, ver) in sorted(self._cells.items())]


class StrategyNode:
    """Base class: owns the node's registers and its peer list."""

    def __init__(self, params: StrategyParams, node_id: int, node_count: int):
        self.params = params
        self.node_id = node_id
        self.peers = tuple(n for n in range(node_count) if n != node_id)
        self.registers = RegisterMap()
        self._write_seq = 0

    def write(self, op, now: int) -> Version:
        """Apply a client write locally under a fresh version, and return that version."""
        self._write_seq += 1
        version = (now, self.node_id, self._write_seq)
        self.registers.merge(op.key, op.val, version)
        return version

    def on_init(self) -> list[Action]:
        return []

    def on_invoke(self, op, now: int) -> list[Action]:
        raise NotImplementedError

    def on_message(self, payload: dict, src: int, now: int) -> list[Action]:
        raise NotImplementedError

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        raise NotImplementedError


class LocalFirstNode(StrategyNode):
    """Answer instantly from local state; gossip writes to peers."""

    GOSSIP_TIMER = "anti-entropy"

    def on_init(self) -> list[Action]:
        if not self.peers:
            return []
        return [SetTimer(self.params.anti_entropy_period, self.GOSSIP_TIMER)]

    def on_invoke(self, op, now: int) -> list[Action]:
        if op.kind == "write":
            digest = {"entries": [(op.key, op.val, self.write(op, now))]}
            return [Respond(op.op_id, None)] + [Send(peer, digest) for peer in self.peers]
        return [Respond(op.op_id, self.registers.value(op.key))]

    def on_message(self, payload: dict, src: int, now: int) -> list[Action]:
        for key, val, ver in payload["entries"]:
            self.registers.merge(key, val, ver)
        return []

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        digest = {"entries": self.registers.items()}
        actions: list[Action] = [Send(peer, digest) for peer in self.peers]
        actions.append(SetTimer(self.params.anti_entropy_period, self.GOSSIP_TIMER))
        return actions


def _fresher(val: int | None, ver: Version | None, best_val: int | None,
             best_ver: Version | None) -> int | None:
    """A read round's answer: its best reply's value if that outranks the node's cell (val, ver)."""
    if best_ver is not None and (ver is None or best_ver > ver):
        return best_val
    return val


class _Round:
    """An in-flight request round on its coordinating node; a probing node's is a ``_Probe``.

    ``waiting`` maps each peer that has not acknowledged yet, in id
    order, to the send of the round's request to it, built once.
    """

    __slots__ = ("op_id", "kind", "key", "waiting", "responded", "best_val", "best_ver")

    def __init__(self, op_id: int, kind: str, key: str, waiting: dict[int, Send]):
        self.op_id, self.kind, self.key = op_id, kind, key
        self.waiting, self.responded = waiting, False
        self.best_val = self.best_ver = None


class RoundNode(StrategyNode):
    """Round per request, answered once every peer has acknowledged or at a deadline.

    ``deadlines`` is () for SyncAll and (D,) for HybridDeadline(D). Writes
    apply locally at invoke time and at each peer on delivery; every peer
    replies with its cell, and reads answer with the highest version seen
    across all replies and the local cell. Outstanding round messages
    retransmit every R ticks, so blocked rounds complete after a partition
    heals, and replication converges even where a deadline answered first.
    A round still open at ``invoke + D`` answers with what has arrived: at
    invoke for D = 0, else by a ``deadline:<op>`` timer set at invoke after
    the round's sends, so in tick ``invoke + D``'s FIFO queue it sits ahead
    of every delivery sent after the invoke.
    """

    RETRANSMIT_TIMER = "retransmit"
    DEADLINE_PREFIX = "deadline:"
    ROUND = _Round

    def __init__(self, params: StrategyParams, node_id: int, node_count: int):
        super().__init__(params, node_id, node_count)
        self.deadlines = (params.deadline,) if params.kind == "HybridDeadline" else ()
        self.rounds: dict[int, _Round] = {}
        self._rearm = [SetTimer(params.retransmit_period, self.RETRANSMIT_TIMER)]

    def on_init(self) -> list[Action]:
        return self._rearm if self.peers else []

    def _respond_value(self, rnd: _Round) -> int | None:
        if rnd.kind == "write":
            return None
        return _fresher(*self.registers.get(rnd.key), rnd.best_val, rnd.best_ver)

    def _finish(self, rnd: _Round) -> list[Action]:
        del self.rounds[rnd.op_id]
        if rnd.responded:
            return []
        rnd.responded = True
        return [Respond(rnd.op_id, self._respond_value(rnd))]

    def on_invoke(self, op, now: int) -> list[Action]:
        version = self.write(op, now) if op.kind == "write" else None
        request = {"type": "req", "op": op.op_id, "key": op.key, "val": op.val, "ver": version}
        waiting = {peer: Send(peer, request) for peer in self.peers}
        rnd = self.rounds[op.op_id] = self.ROUND(op.op_id, op.kind, op.key, waiting)
        if not waiting:
            return self._finish(rnd)  # no peers: complete at invoke
        actions: list[Action] = list(waiting.values())
        for d in self.deadlines:
            actions += self._deadline_passed(rnd, now) if d == 0 else [
                SetTimer(d, f"{self.DEADLINE_PREFIX}{op.op_id}")]
        return actions

    def _deadline_passed(self, rnd: _Round, now: int) -> list[Action]:
        """Answer an open round with what has arrived."""
        rnd.responded = True
        return [Respond(rnd.op_id, self._respond_value(rnd))]

    def on_message(self, payload: dict, src: int, now: int) -> list[Action]:
        if payload["type"] == "req":
            key = payload["key"]
            if payload["ver"] is not None:
                self.registers.merge(key, payload["val"], payload["ver"])
            val, ver = self.registers.get(key)
            return [Send(src, {"type": "rep", "op": payload["op"], "val": val, "ver": ver})]
        rnd = self.rounds.get(payload["op"])
        if rnd is None:
            return []  # stale reply from a retransmission after completion
        if (ver := payload["ver"]) is not None and (rnd.best_ver is None or ver > rnd.best_ver):
            rnd.best_val, rnd.best_ver = payload["val"], ver
        rnd.waiting.pop(src, None)
        if not rnd.waiting:
            return self._finish(rnd)
        return []

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        if timer_id != self.RETRANSMIT_TIMER:  # a deadline:<op> timer
            rnd = self.rounds.get(int(timer_id[len(self.DEADLINE_PREFIX):]))
            # a completed round has its answer already
            return [] if rnd is None else self._deadline_passed(rnd, now)
        if not self.rounds:
            return self._rearm
        actions: list[Action] = [
            send for rnd in self.rounds.values() for send in rnd.waiting.values()
        ]
        actions.append(self._rearm[0])
        return actions


class _Probe(_Round):
    """A probed round with its notes, which ``DeadlineProbeNode.on_invoke`` sets.

    ``pieces`` holds ``(first deadline, value)`` pairs, each value held
    from its first deadline up to the next pair's; ``ticks`` and ``bests``
    log the round's best reply by tick; ``done`` is the tick the round
    completed, or None while it is open.
    """

    __slots__ = ("invoke_tick", "pieces", "ticks", "bests", "done")


class DeadlineProbeNode(RoundNode):
    """A SyncAll round node that notes what HybridDeadline(D) answers, for many D in one run.

    D changes only when a HybridDeadline node answers, never what it
    sends or merges, so the history of a run of these nodes is SyncAll's,
    and the run serves every D at once. HybridDeadline(D) answers an op
    invoked at t with the round's value when its timer fires at t + D and
    finds the round open. The node's rounds, ``_Probe``s, carry the notes.
    Its ``deadlines`` are each 0 < D <= latency, whose timers ``RoundNode``
    sets as HybridDeadline(D) does; ``_deadline_passed`` notes the answer.

    * D = 0: noted in ``on_invoke``, after the round's sends, before any event.
    * 0 < D <= latency: one ``deadline:<op>`` timer per such D, set at
      invoke, as HybridDeadline(D) sets it. Its place in tick t + D's FIFO
      queue decides what it sees. The deliveries landing in that tick were
      sent at t + D - latency, which is t or earlier: those sent before the
      invoke land ahead of the timer and those sent later in tick t behind
      it, so no end-of-tick state gives its answer. A timer re-armed from
      an earlier deadline would queue behind both, and answer fresher than
      HybridDeadline(D).
    * D > latency: no timer. Every event queued ahead of HybridDeadline(D)'s
      timer at t + D was queued at tick t or before; no such delivery lands
      after t + latency, and no timer changes a cell or a round. The tick's
      invokes run after it. So the answer is the round's value as of the
      end of tick t + D - 1, and there is one exactly when t + D is before
      the horizon and the round completes at or after t + D. The node logs
      by tick each change to its own cells, each improvement of a round's
      best reply and the tick each round completes, and ``answers`` reads
      the logs: no event is made per (op, deadline).

    Every round completes at or after t + 2 * latency, so the rounds a
    timer probes are all still open.

    A retransmit sends each peer one batch of the requests still waiting
    on it, in round order, from a per-peer map kept as requests are sent
    and acknowledged: a tick walks no round, but copies every waiting
    request, about tp²/4 copies over a frontier run. SyncAll
    queues the same requests as one handler call's block of single sends:
    the batch takes that block's place in the delivery tick's queue, and
    each peer still gets its requests in the same order at the same tick.
    The reply batches land as contiguous blocks too, and a reply only
    raises a round's best and pops its ``waiting``, so no event outside a
    block sees another state, and each op is answered at the tick and
    with the value SyncAll's run gives it.
    """

    ROUND = _Probe

    def __init__(self, params: StrategyParams, node_id: int, node_count: int,
                 deadlines: list[int], latency: int):
        super().__init__(params, node_id, node_count)
        self._probes: dict[int, _Probe] = {}  # op -> its round, kept once it completes
        # peer -> {op: request}: the requests still waiting on the peer, in round order
        self._owed: dict[int, dict[int, dict]] = {peer: {} for peer in self.peers}
        # key -> (ticks, the cell at the end of each): this node's cell changes
        self._cells: dict[str, tuple[list[int], list[tuple]]] = {}
        self.first_logged = latency + 1  # the least deadline the logs answer
        self.deadlines = tuple(d for d in sorted(set(deadlines)) if 0 < d < self.first_logged)

    def _deadline_passed(self, rnd: _Probe, now: int) -> list[Action]:
        """Note the answer at deadline now - invoke, as a new piece if its value changed."""
        if (value := self._respond_value(rnd)) != rnd.pieces[-1][1]:
            rnd.pieces.append((now - rnd.invoke_tick, value))
        return []

    def write(self, op, now: int) -> Version:
        version = super().write(op, now)
        self._log_cell(op.key, now)
        return version

    def on_invoke(self, op, now: int) -> list[Action]:
        actions = super().on_invoke(op, now)
        if self.peers:  # else the round completed at invoke
            probe = self._probes[op.op_id] = self.rounds[op.op_id]
            probe.invoke_tick, probe.pieces = now, [(0, self._respond_value(probe))]  # D = 0
            probe.ticks, probe.bests, probe.done = [], [], None
            for peer, send in probe.waiting.items():
                self._owed[peer][op.op_id] = send.payload
        return actions

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        if timer_id != self.RETRANSMIT_TIMER:
            return super().on_timer(timer_id, now)
        batches: list[Action] = [Send(peer, {"type": "batch", "msgs": list(owed.values())})
                                 for peer, owed in self._owed.items() if owed]
        return batches + self._rearm if batches else self._rearm

    def on_message(self, payload: dict, src: int, now: int) -> list[Action]:
        kind = payload["type"]
        if kind == "batch":  # a retransmit's requests, or the replies to them
            actions = [a for msg in payload["msgs"] for a in self.on_message(msg, src, now)]
            if actions and type(actions[0]) is Send:  # each request is answered by one reply
                return [Send(src, {"type": "batch", "msgs": [send.payload for send in actions]})]
            return actions
        if kind == "req":
            actions = super().on_message(payload, src, now)
            if payload["ver"] is not None:  # a write's request may have changed a cell
                self._log_cell(payload["key"], now)
            return actions
        self._owed[src].pop(payload["op"], None)  # a reply: the request waits on src no more
        rnd = self.rounds.get(payload["op"])
        if rnd is None:
            return super().on_message(payload, src, now)
        best = rnd.best_ver
        actions = super().on_message(payload, src, now)
        if rnd.best_ver != best and rnd.kind == "read":
            _log(rnd.ticks, rnd.bests, now, (rnd.best_val, rnd.best_ver))
        if not rnd.waiting:
            rnd.done = now
        return actions

    def _log_cell(self, key: str, now: int) -> None:
        log = self._cells.get(key)
        if log is None:
            log = self._cells[key] = ([], [])
        cell = self.registers.get(key)
        if not log[1] or log[1][-1] is not cell:  # a merge stores a new cell
            _log(*log, now, cell)

    def answers(self, horizon: int) -> dict[int, tuple[int, list]]:
        """``{op: (last, pieces)}`` for each round this node probed.

        The op has an answer at every deadline D <= ``last`` and at no
        other: the value of the last of ``pieces`` whose first deadline is
        at most D, answered at tick invoke + D.
        """
        out = {}
        for op_id, probe in self._probes.items():
            last = (horizon - 1 if probe.done is None else probe.done) - probe.invoke_tick
            logged = self._logged(probe, last) if probe.kind == "read" and last >= self.first_logged else []
            out[op_id] = last, probe.pieces + logged
        return out

    def _logged(self, probe: _Probe, last: int) -> list[tuple[int, int | None]]:
        """The pieces from the logs, for the deadlines from ``first_logged`` to ``last``."""
        edge = probe.invoke_tick - 1  # deadline D answers with the state at the end of tick edge + D
        ticks, cells = self._cells.get(probe.key, ((), ()))
        lo, hi = edge + self.first_logged, edge + last
        changes = {lo}
        changes.update(ticks[bisect_right(ticks, lo):bisect_right(ticks, hi)])
        changes.update(s for s in probe.ticks if lo < s <= hi)
        pieces, value = [], probe.pieces[-1][1]
        for s in sorted(changes):
            i, j = bisect_right(ticks, s) - 1, bisect_right(probe.ticks, s) - 1
            fresh = _fresher(*(cells[i] if i >= 0 else (None, None)),
                             *(probe.bests[j] if j >= 0 else (None, None)))
            if fresh != value:
                pieces.append((s - edge, fresh))
                value = fresh
        return pieces


def _log(ticks: list[int], states: list, now: int, state) -> None:
    """Note ``state`` as the one at the end of tick ``now``."""
    if ticks and ticks[-1] == now:
        states[-1] = state
    else:
        ticks.append(now)
        states.append(state)


STRATEGY_NODES = {
    "LocalFirst": LocalFirstNode,
    "SyncAll": RoundNode,
    "HybridDeadline": RoundNode,
}


def build_node(params: StrategyParams, node_id: int, node_count: int) -> StrategyNode:
    return STRATEGY_NODES[params.kind](params, node_id, node_count)
