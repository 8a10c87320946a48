"""Seeded inputs for the benchmark's workloads.

Every input is built here from the benchmark's own ``--seed``; capsim only
ever sees the explicit ``workload`` and ``partitions`` lists (never
``workload_gen``), so the program under test cannot shape its own load.
``scale`` shrinks op counts and outage counts for the smoke self-test.
"""

from __future__ import annotations

import random

# frontier-sweep runs `capsim frontier --tp FRONTIER_TP --deadlines ...`
FRONTIER_TP = 100
FRONTIER_DEADLINES = list(range(0, FRONTIER_TP + 1, 5))
HOT_KEYS_OPS = 8000
MESH_OPS = 250
MESH_ISO_LEN = 40


def _isolation(node: int, nodes: int, start: int, end: int) -> list[dict]:
    """Every link of ``node`` down over [start, end): a real cut."""
    return [
        {"a": node, "b": other, "start": start, "end": end}
        for other in range(nodes)
        if other != node
    ]


def _schedule(
    rng: random.Random, nodes: int, horizon: int, isolations: int, iso_len: int,
    links: int, link_len: int,
) -> list[dict]:
    """Isolations in disjoint time slots, then random single-link outages.

    Lengths are fixed and only placement is random, so the cost of a pass
    moves little from seed to seed.
    """
    partitions = []
    slot = horizon // isolations
    for i in range(isolations):
        start = i * slot + rng.randrange(0, slot - iso_len)
        partitions += _isolation(rng.randrange(nodes), nodes, start, start + iso_len)
    for _ in range(links):
        a, b = rng.sample(range(nodes), 2)
        start = rng.randrange(0, horizon - link_len)
        partitions.append({"a": a, "b": b, "start": start, "end": start + link_len})
    return partitions


def _ops(
    rng: random.Random, count: int, nodes: int, keys: list[str], reads: int, last_tick: int
) -> list[dict]:
    """``count`` ops with exactly ``reads`` reads, spread evenly over time, keys and nodes.

    One op per equal time stratum keeps the number of ops that fall inside
    any outage nearly the same for every seed.
    """

    def balanced(choices: list, n: int) -> list:
        out = [choices[i % len(choices)] for i in range(n)]
        rng.shuffle(out)
        return out

    kinds = balanced(["read"] * reads + ["write"] * (count - reads), count)
    on_node = balanced(list(range(nodes)), count)
    on_key = balanced(keys, count)
    ops = []
    val = 1
    for i in range(count):
        t = (i * last_tick) // count + rng.randrange(max(1, last_tick // count))
        op = {"t": t, "node": on_node[i], "kind": kinds[i], "key": on_key[i], "val": None}
        if kinds[i] == "write":
            op["val"] = val
            val += 1  # distinct values let the checker attribute every read
        ops.append(op)
    return ops


def hot_keys(seed: int, scale: float = 1.0) -> dict:
    """3 nodes, LocalFirst G=8, 8000 ops on 2 keys, exactly half reads.

    Checker cost grows with reads x writes per key, so `check` dominates
    the pass while reachability at n=3 stays nearly free.
    """
    rng = random.Random(f"hot-keys/{seed}")
    nodes, horizon = 3, 4000
    count = max(8, int(HOT_KEYS_OPS * scale))
    return {
        "nodes": nodes,
        "latency": 1,
        "horizon": horizon,
        "seed": seed,
        "partitions": _schedule(rng, nodes, horizon, 2, 300, 4, 200),
        "strategy": {"kind": "LocalFirst", "G": 8},
        "workload": _ops(rng, count, nodes, ["A", "B"], count // 2, horizon - 50),
    }


def outage_mesh(seed: int, scale: float = 1.0) -> dict:
    """12 nodes, HybridDeadline D=6 R=2, 200 outages, write-heavy ops on 32 keys.

    The per-send BFS scans every outage, so reachability dominates
    `simulate`; node isolations make tp > 0 while the checker idles.
    """
    rng = random.Random(f"outage-mesh/{seed}")
    nodes, horizon = 12, 2000
    isolations = 3
    links = max(1, int(200 * scale)) - isolations * (nodes - 1)
    count = max(8, int(MESH_OPS * scale))
    return {
        "nodes": nodes,
        "latency": 1,
        "horizon": horizon,
        "seed": seed,
        "partitions": _schedule(rng, nodes, horizon, isolations, MESH_ISO_LEN, max(0, links), 100),
        "strategy": {"kind": "HybridDeadline", "D": 6, "R": 2},
        # every op answers by invoke + D, so none is left open at the horizon
        "workload": _ops(rng, count, nodes, [f"k{i}" for i in range(32)], count * 3 // 10, horizon - 50),
    }


def frontier_base(seed: int) -> dict:
    """Base file for `capsim frontier`: G=2, latency 1.

    The sweep builds its own two-node scenarios; without ``noise_reads``
    the seed field changes no output, so the pinned CSV holds on every seed.
    """
    return {"latency": 1, "seed": seed, "G": 2}
