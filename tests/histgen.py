"""Randomized generators and brute-force oracles shared across tests.

The oracles deliberately take the slow road: per-tick scans and
from-scratch graph walks, so they share no shortcuts with the
implementations they pin down.
"""

from __future__ import annotations

import json
import random

from capsim.checker import History, OperationRecord
from capsim.config import GEN_FIELDS, OP_FIELDS, OUTAGE_FIELDS, ClientOp, ConfigError, read_json
from capsim.partitions import LinkOutage, PartitionSchedule


def random_history(
    seed: int,
    max_ops: int = 30,
    horizon: int = 100,
    nodes: int = 3,
    keys: tuple[str, ...] = ("A", "B"),
    later_values: bool = False,
) -> History:
    """A random but self-consistent history.

    Reads only return values written at or before their response tick
    (or the initial absent value), which is every history a causal
    trace can produce; staleness is otherwise unconstrained. With
    ``later_values`` a read may return any value written to its key,
    including one first written after the read responded.
    """
    rng = random.Random(seed)
    n_ops = rng.randint(1, max_ops)
    n_writes = rng.randint(1, max(1, (2 * n_ops) // 3))
    n_reads = max(1, n_ops - n_writes)

    records: list[OperationRecord] = []
    next_val = 1
    used_values: dict[str, list[int]] = {k: [] for k in keys}
    for op_id in range(n_writes):
        t = rng.randint(0, horizon - 1)
        key = rng.choice(keys)
        if used_values[key] and rng.random() < 0.1:
            val = rng.choice(used_values[key])  # duplicated value stress
        else:
            val = next_val
            next_val += 1
        used_values[key].append(val)
        answered = rng.random() > 0.05
        rec = OperationRecord(
            op_id=op_id,
            kind="write",
            key=key,
            node=rng.randrange(nodes),
            invoke_tick=t,
            written=val,
            answered=answered,
            response_tick=min(t + rng.randint(0, 8), horizon) if answered else None,
        )
        records.append(rec)

    writes_by_key = {k: [] for k in keys}
    for rec in records:
        writes_by_key[rec.key].append(rec)
    for key in writes_by_key:
        writes_by_key[key].sort(key=lambda w: (w.invoke_tick, w.node, w.op_id))

    for op_id in range(n_writes, n_writes + n_reads):
        t = rng.randint(0, horizon - 1)
        key = rng.choice(keys)
        answered = rng.random() > 0.05
        response = min(t + rng.randint(0, 10), horizon) if answered else None
        returned = None
        if answered:
            visible = [
                w.written
                for w in writes_by_key[key]
                if later_values or w.invoke_tick <= response
            ]
            if visible and rng.random() > 0.15:
                returned = rng.choice(visible)
        records.append(
            OperationRecord(
                op_id=op_id,
                kind="read",
                key=key,
                node=rng.randrange(nodes),
                invoke_tick=t,
                response_tick=response,
                returned=returned,
                answered=answered,
            )
        )
    return History(records)


def _anchor(read: OperationRecord, time_ref: str) -> int:
    return read.response_tick if time_ref == "response" else read.invoke_tick


def admits_oracle(
    history: History, read: OperationRecord, tc: int, time_ref: str = "response"
) -> bool:
    """Does budget ``tc`` admit the read? Straight from the definition.

    The read may return the baseline (the last write in version order
    invoked at or before ``anchor - tc``, or the initial value when there
    is none) or any write invoked in ``(anchor - tc, response]``.
    """
    cutoff = _anchor(read, time_ref) - tc
    writes = sorted(
        (w for w in history.records if w.kind == "write" and w.key == read.key),
        key=lambda w: (w.invoke_tick, w.node, w.op_id),
    )
    baseline = None
    allowed = set()
    for w in writes:
        if w.invoke_tick <= cutoff:
            baseline = w.written
        elif w.invoke_tick <= read.response_tick:
            allowed.add(w.written)
    return read.returned == baseline or read.returned in allowed


def read_min_tc_oracle(
    history: History, read: OperationRecord, time_ref: str = "response"
) -> int | None:
    """The least budget admitting the read, by trying each in turn.

    Past ``anchor + 1`` the cutoff is below every tick, so no wider budget
    admits anything new; None means no budget admits the read.
    """
    for tc in range(_anchor(read, time_ref) + 2):
        if admits_oracle(history, read, tc, time_ref):
            return tc
    return None


def min_tc_oracle(history: History, time_ref: str = "response") -> int:
    """The least budget admitting every answered read, trying each in turn."""
    reads = [r for r in history.records if r.kind == "read" and r.answered]
    hi = max((_anchor(read, time_ref) + 1 for read in reads), default=0)
    for tc in range(hi + 1):
        if all(admits_oracle(history, read, tc, time_ref) for read in reads):
            return tc
    raise AssertionError("no staleness budget admitted the history")


def random_schedule(
    seed: int, max_nodes: int = 4, horizon: int = 200
) -> tuple[PartitionSchedule, int]:
    """Random single-link outages, then whole-node isolations (every link of
    one node down over one interval) while the total stays within 12 outages.

    Isolations make the cuts that split a component into more than two
    parts, or leave the rest of a split component disconnected.
    """
    rng = random.Random(seed)
    nodes = rng.randint(2, max_nodes)
    outages = []
    for _ in range(rng.randint(0, 6)):
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        while b == a:
            b = rng.randrange(nodes)
        start = rng.randint(0, horizon - 1)
        end = min(start + rng.randint(1, 80), horizon)
        if end <= start:
            continue
        outages.append(LinkOutage(a, b, start, end))
    for _ in range(rng.randint(0, 3)):
        if len(outages) + nodes - 1 > 12:
            break
        node = rng.randrange(nodes)
        # half the time where an earlier outage starts: one boundary then
        # cuts a component into three or more parts
        if outages and rng.random() < 0.5:
            start = rng.choice(outages).start
        else:
            start = rng.randint(0, horizon - 1)
        end = min(start + rng.randint(1, 80), horizon)
        outages += [LinkOutage(node, other, start, end) for other in range(nodes) if other != node]
    return PartitionSchedule(nodes, tuple(outages)), horizon


def flapping_schedule(
    seed: int, max_nodes: int = 3, horizon: int = 200
) -> tuple[PartitionSchedule, int]:
    """One pair's link down on every k-th tick, k in 2-4, from any phase.

    Apart from ``random_schedule``'s few long outages: a retransmit or a
    reply gets through or is dropped by the tick it is sent on, so rounds
    complete, and replies arrive, at scattered ticks.
    """
    rng = random.Random(seed)
    nodes = rng.randint(2, max_nodes)
    a, b = sorted(rng.sample(range(nodes), 2))
    every = rng.randint(2, 4)
    outages = tuple(LinkOutage(a, b, t, t + 1) for t in range(rng.randrange(every), horizon, every))
    return PartitionSchedule(nodes, outages), horizon


def deadline_answers(answers: dict, invoked: dict[int, int], deadline: int) -> dict:
    """``{op: (tick, value)}`` that HybridDeadline(``deadline``) answers at its deadline.

    Read from a probed run's ``{op: (last, pieces)}``; ``invoked`` maps
    each op to its invoke tick.
    """
    out = {}
    for op, (last, pieces) in answers.items():
        if deadline <= last:
            out[op] = invoked[op] + deadline, [v for first, v in pieces if first <= deadline][-1]
    return out


def reachable_oracle(schedule: PartitionSchedule, t: int, a: int, b: int) -> bool:
    """Depth-first walk over the links no outage covers at tick t."""
    down = set()
    for o in schedule.outages:
        if o.start <= t < o.end:
            down.add((o.a, o.b))
    stack, seen = [a], {a}
    while stack:
        here = stack.pop()
        if here == b:
            return True
        for other in range(schedule.node_count):
            if other == here or other in seen:
                continue
            lo, hi = (here, other) if here < other else (other, here)
            if (lo, hi) in down:
                continue
            seen.add(other)
            stack.append(other)
    return False


def partition_span_oracle(schedule: PartitionSchedule, horizon: int) -> int:
    """Per-tick, per-pair reachability scan, written from scratch."""
    best = 0
    for a in range(schedule.node_count):
        for b in range(a + 1, schedule.node_count):
            run = 0
            for t in range(horizon):
                if reachable_oracle(schedule, t, a, b):
                    run = 0
                else:
                    run += 1
                    best = max(best, run)
    return best


def dict_generated_ops(
    seed: int, node_count: int, horizon: int, *, ops: int = 10, keys=("A",),
    read_fraction: float = 0.5, span=None,
) -> list[dict]:
    """A generated workload as ``ClientOp`` keyword dicts, one per op, drawn at once.

    The same RNG calls in the same order as ``config.generate_workload``;
    its arguments are taken as valid.
    """
    rng = random.Random(seed)
    lo, hi = (0, horizon - 1) if span is None else span
    out = []
    next_val = 1000
    for _ in range(ops):
        t = rng.randint(lo, hi)
        node = rng.randrange(node_count)
        key = rng.choice(keys)
        if rng.random() < read_fraction:
            out.append({"t": t, "node": node, "kind": "read", "key": key, "val": None})
        else:
            out.append({"t": t, "node": node, "kind": "write", "key": key, "val": next_val})
            next_val += 1
    return out


def dict_path_workload(doc: dict):
    """The ops of scenario config ``doc`` read the way of one dict per op.

    Each listed outage, then each listed op, is read to a keyword dict by
    the generic object reader, the generated ops follow the listed ones, a
    stable sort on ``t`` numbers them and ``ClientOp(op_id, **op)`` builds
    each. Returns each op's ``(op_id, t, node, kind, key, val)``, or the
    message of the refusal. The first item the reader refuses, named by
    its JSON index, comes first; then the first outage off the nodes, on
    one node or with an empty interval; then the first op in op-id order
    that is a write without a value, off the nodes or past the horizon,
    checked in that order.
    """
    nodes, horizon = doc["nodes"], doc["horizon"]
    read = {}
    for name, table in (("partitions", OUTAGE_FIELDS), ("workload", OP_FIELDS)):
        read[name] = []
        for i, item in enumerate(doc.get(name, [])):
            try:
                read[name].append(read_json(item, table, ""))
            except ConfigError as exc:
                return f"config.{name}[{i}]{exc}"
    for i, outage in enumerate(read["partitions"]):
        a, b, start, end = outage["a"], outage["b"], outage["start"], outage["end"]
        for node in (a, b):
            if not 0 <= node < nodes:
                return f"config.partitions[{i}] addresses unknown node {node}"
        if a == b:
            return f"config.partitions[{i}]: outage endpoints must differ, got {a}"
        if start >= end:
            return f"config.partitions[{i}]: empty outage interval [{start}, {end})"
    ops = read["workload"]
    if "workload_gen" in doc:
        gen = {GEN_FIELDS[key][0]: value for key, value in doc["workload_gen"].items()}
        ops += dict_generated_ops(doc.get("seed", 0), nodes, horizon, **gen)
    order = sorted(range(len(ops)), key=lambda i: ops[i]["t"])
    built = [ClientOp(op_id, **ops[i]) for op_id, i in enumerate(order)]
    for op, i in zip(built, order):
        if op.kind == "write" and not isinstance(op.val, int):
            return f"config.workload[{i}].val must be an integer for a write, got {json.dumps(op.val)}"
        if not 0 <= op.node < nodes:
            return f"config.workload[{i}].node must be in [0, {nodes - 1}], got {op.node}"
        if not 0 <= op.t < horizon:
            return f"config.workload[{i}].t must lie in [0, {horizon - 1}], got {op.t}"
    return [(op.op_id, op.t, op.node, op.kind, op.key, op.val) for op in built]
