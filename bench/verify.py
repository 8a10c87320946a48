"""Outside checks on capsim's outputs, written without capsim's code.

They hold for every seed, so they cover the seeds the pinned hashes in
``pins.json`` cannot: transport and operation invariants read from the
trace file, and the partition span recomputed tick by tick.
"""

from __future__ import annotations

import json
from collections import Counter


def trace_invariants(path) -> tuple[list[str], Counter, int]:
    """Stream a JSONL trace; return (problems, records by kind, bytes).

    Checks that ``seq`` strictly increases and ``t`` never decreases,
    that every send settles exactly once as a deliver or a drop, and that
    every invoke gets exactly one respond or ``unanswered``.
    """
    problems: list[str] = []
    kinds: Counter = Counter()
    size = 0
    last_seq, last_t = -1, 0
    in_flight: set[int] = set()
    settled: set[int] = set()
    open_ops: set[int] = set()
    closed_ops: set[int] = set()
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            size += len(line)
            rec = json.loads(line)
            ev = rec["ev"]
            kinds[ev] += 1
            if rec["seq"] <= last_seq or rec["t"] < last_t:
                problems.append(f"line {line_no}: seq/t not monotone")
            last_seq, last_t = rec["seq"], rec["t"]
            if ev == "send":
                if rec["msg"] in in_flight or rec["msg"] in settled:
                    problems.append(f"line {line_no}: msg {rec['msg']} sent twice")
                in_flight.add(rec["msg"])
            elif ev in ("deliver", "drop"):
                if rec["msg"] not in in_flight:
                    problems.append(f"line {line_no}: msg {rec['msg']} settles twice or unsent")
                in_flight.discard(rec["msg"])
                settled.add(rec["msg"])
            elif ev == "invoke":
                if rec["op"] in open_ops or rec["op"] in closed_ops:
                    problems.append(f"line {line_no}: op {rec['op']} invoked twice")
                open_ops.add(rec["op"])
            elif ev in ("respond", "unanswered"):
                if rec["op"] not in open_ops:
                    problems.append(f"line {line_no}: op {rec['op']} closes twice or never opened")
                open_ops.discard(rec["op"])
                closed_ops.add(rec["op"])
    if in_flight:
        problems.append(f"{len(in_flight)} sends never settle")
    if open_ops:
        problems.append(f"{len(open_ops)} invokes never answered or marked unanswered")
    return problems, kinds, size


def partition_span(nodes: int, horizon: int, partitions: list[dict]) -> int:
    """Longest run of ticks any node pair spends with no live path.

    Recomputed from scratch for every tick with a union-find over the
    links that are live at that tick.
    """
    pairs = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    down_at: dict[int, list[tuple[int, int]]] = {}
    for p in partitions:
        link = (min(p["a"], p["b"]), max(p["a"], p["b"]))
        for t in range(p["start"], min(p["end"], horizon)):
            down_at.setdefault(t, []).append(link)
    run = dict.fromkeys(pairs, 0)
    best = 0
    for t in range(horizon):
        parent = list(range(nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        down = set(down_at.get(t, ()))
        for a, b in pairs:
            if (a, b) not in down:
                parent[find(a)] = find(b)
        for pair in pairs:
            if find(pair[0]) != find(pair[1]):
                run[pair] += 1
                best = max(best, run[pair])
            else:
                run[pair] = 0
    return best
