"""Executable experiments: contradiction replay and the deadline frontier.

Both experiments isolate one node pair behind a full bipartition for a
span of ``tp`` ticks and route data across the cut, because without
cross-cut flow the staleness/latency tradeoff is invisible. Each builds
its scenario directly: its ops, the caller's ``StrategyParams`` and
``isolation``'s cut go straight into a ``ScenarioConfig``, so only
``ScenarioConfig.from_dict`` reads a scenario from JSON.

``proof_replay`` stages the impossibility argument directly: claim a
staleness budget plus a latency budget that together undercut the
partition span, inject a write on one side and a read on the other
inside the dead window, and watch the checker find a violation. No
strategy escapes; that is the point.

``frontier_sweep`` maps the achievable side of the tradeoff. One row
per response deadline D, bracketed by the two extremes (LocalFirst as
the instant-answer corner, SyncAll as the always-fresh corner). The
sweep runs two simulations, not one per row. SyncAll and HybridDeadline(D)
are one round node, ``strategies.RoundNode``, and D only decides when it
answers. So ``probed_run`` runs SyncAll as ``DeadlineProbeNode``s, round
nodes whose history is SyncAll's. They retransmit one batch per peer, not one
request per open round and peer, so the run's sends grow about linearly
in tp, not as tp². They note what every deadline would answer: a timer
for each D up to the message latency, and for every later D the probing
node's logs of its cells, its rounds' best replies and their ends, with
no event per (op, deadline). Each op's answers come back as a few
pieces, each a value over a run of deadlines. ``deadline_figures`` scores each read
once per piece and once for its SyncAll answer, and one sweep over the
deadlines takes every row's maximum staleness and latency. The LocalFirst
row is that sweep over its own run with no answers, at deadline INFINITE.
Rows anchor staleness at the invoke tick: a deadline strategy spends its D ticks
waiting for fresher data, and response-tick anchoring would bill
that same wait twice, once as latency and once as staleness, hiding
the tradeoff the sweep exists to measure. Response-tick anchoring
stays the default everywhere else.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from heapq import heappop, heappush

from .checker import (
    INFINITE,
    CheckReport,
    History,
    bound_holds,
    check,
    extract_history,
    read_staleness,
    unadmitted,
)
from .config import (
    FRONTIER_FIELDS,
    MAX_HORIZON,
    PROOF_FIELDS,
    ConfigError,
    ScenarioConfig,
    StrategyParams,
    check_range,
    read_json,
)
from .kernel import Simulation, run_scenario
from .strategies import DeadlineProbeNode


def bound_slack(params: StrategyParams, latency: int) -> int:
    """Discrete-model slack for the staleness+latency lower bound.

    One message latency on each side of a cut, plus one gossip period
    for strategies that heal via anti-entropy.
    """
    slack = 2 * latency
    if params.kind == "LocalFirst":  # the one strategy that heals by gossip
        slack += params.anti_entropy_period
    return slack


class ProofReplaySpec(
    namedtuple(
        "ProofReplaySpec",
        "strategy tp claimed_tc claimed_ta t_start n_a n_b node_count latency horizon",
        defaults=(5, 0, 1, 2, 1, None),  # t_start, n_a, n_b, node_count, latency, horizon
    )
):
    """A claimed (staleness, latency) pair to refute under a partition.

    The claim must undercut the partition span by enough room to place
    the window [t, t + claimed_tc + claimed_ta] strictly inside the
    outage; otherwise the scenario proves nothing and is rejected.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # the rules between fields; PROOF_FIELDS has the ranges
        self = super().__new__(cls, *args, **kwargs)
        if self.claimed_tc + self.claimed_ta > self.tp - 2:
            raise ConfigError(
                "claim window cannot sit strictly inside the partition; "
                "need claimed_tc + claimed_ta <= tp - 2"
            )
        for name in ("n_a", "n_b"):
            check_range(getattr(self, name), (0, self.node_count - 1), f"spec.{name}")
        if self.n_a == self.n_b:
            raise ConfigError(f"spec.n_a and spec.n_b must differ, got {self.n_a} for both")
        if self.t_start < self.latency + 2:
            raise ConfigError(f"spec.t_start must be >= spec.latency + 2, got {self.t_start}")
        if self.horizon is not None and self.horizon < self.t_start + self.tp:
            raise ConfigError(f"spec.horizon must be >= spec.t_start + spec.tp, got {self.horizon}")
        if self.horizon is None and self.run_horizon() > MAX_HORIZON:
            raise ConfigError(
                "the default horizon t_start + tp + strategy.D + strategy.R + strategy.G "
                f"+ 6 * latency + 4 must be <= {MAX_HORIZON}, got {self.run_horizon()}"
            )
        return self

    def run_horizon(self) -> int:
        """``horizon``, or by default a tick by which the cut has healed and settled."""
        if self.horizon is not None:
            return self.horizon
        p = self.strategy
        return (self.t_start + self.tp + p.deadline + p.retransmit_period + p.anti_entropy_period
                + 6 * self.latency + 4)

    @classmethod
    def from_dict(cls, d: dict) -> "ProofReplaySpec":
        fields = read_json(d, PROOF_FIELDS, "spec")
        fields["strategy"] = StrategyParams.from_fields(fields["strategy"], "spec.strategy")
        return cls(**fields)


def isolation(node: int, node_count: int, start: int, end: int) -> list[tuple[int, int, int, int]]:
    """The outages that cut ``node`` from every other node over [start, end).

    A bipartition, so no relay can carry a value across the cut. On two
    nodes it is the one outage of the link {0, 1}.
    """
    return [(node, other, start, end) for other in range(node_count) if other != node]


def build_proof_config(spec: ProofReplaySpec) -> ScenarioConfig:
    """The minimal scenario realizing the contradiction window.

    The schedule isolates n_a completely, a warmup write replicates before
    the cut so the stale side has a concrete value to return, and the
    write/read pair lands inside the dead window.
    """
    t = spec.t_start + 1
    workload = (
        (spec.t_start - spec.latency - 1, spec.n_a, "write", "A", 100),
        (t, spec.n_a, "write", "A", 200),
        (t + spec.claimed_tc, spec.n_b, "read", "A", None),
    )
    return ScenarioConfig(
        spec.node_count, spec.run_horizon(), spec.strategy, spec.latency,
        isolation(spec.n_a, spec.node_count, spec.t_start, spec.t_start + spec.tp), workload,
    )


def proof_replay(spec: ProofReplaySpec) -> CheckReport:
    """Run the contradiction scenario and check it against the claim.

    For any claim with claimed_tc + claimed_ta strictly under the
    partition span, the report comes back with at least one
    availability or consistency violation, whichever way the strategy
    leans.
    """
    config = build_proof_config(spec)
    trace = run_scenario(config)
    history = extract_history(trace)
    return check(history, spec.claimed_tc, spec.claimed_ta)


# -- frontier sweep ---------------------------------------------------

FRONTIER_T_START = 10
FRONTIER_LEAD = 8
FRONTIER_TAIL = 8
_FRONTIER_KEY = "A"
_WRITE_NODE = 0
_READ_NODE = 1


class FrontierRow(
    namedtuple("FrontierRow", "label deadline empirical_tc_min empirical_ta tp bound_ok")
):
    """One strategy's empirical position against one partition span.

    ``label`` is "LocalFirst", "SyncAll", or the deadline as a string.
    """

    __slots__ = ()

    def csv_cells(self) -> list[str]:
        ta = "inf" if math.isinf(self.empirical_ta) else str(self.empirical_ta)
        ok = "true" if self.bound_ok else "false"
        return [self.label, str(self.empirical_tc_min), ta, str(self.tp), ok]


def build_frontier_workload(tp: int) -> list[tuple]:
    """Periodic writes on one side of the cut, periodic reads on the other.

    Writes land on even offsets starting before the cut and running past
    the heal, with one write exactly at the cut's first tick; reads
    interleave on odd offsets. Values are distinct so the checker can
    attribute every read. Each op is ``(t, node, kind, key, val)``.
    """
    first, last = FRONTIER_T_START - FRONTIER_LEAD, FRONTIER_T_START + tp + FRONTIER_TAIL
    writes = range(first, last + 1, 2)
    reads = range(first + 1, last + 2, 2)
    return [(t, _WRITE_NODE, "write", _FRONTIER_KEY, val) for val, t in enumerate(writes, start=10)] + [
        (t, _READ_NODE, "read", _FRONTIER_KEY, None) for t in reads
    ]


def frontier_horizon(tp: int, deadline: int, latency: int) -> int:
    """The end of a frontier run: past the heal, the last read and the latest deadline."""
    return FRONTIER_T_START + tp + FRONTIER_TAIL + deadline + 6 * latency + 4


def build_frontier_config(
    tp: int,
    strategy: StrategyParams,
    *,
    latency: int = 1,
    seed: int = 0,
    horizon: int | None = None,
    noise_reads: int = 0,
) -> ScenarioConfig:
    if horizon is None:
        horizon = frontier_horizon(tp, strategy.deadline, latency)
    # read-only noise: extra writes on the read side would let stale
    # reads hide behind locally-fresh values and blunt the experiment
    noise = {"ops": noise_reads, "keys": [_FRONTIER_KEY], "read_fraction": 1.0} if noise_reads else None
    cut = isolation(_WRITE_NODE, 2, FRONTIER_T_START, FRONTIER_T_START + tp)
    return ScenarioConfig(2, horizon, strategy, latency, cut, build_frontier_workload(tp), noise, seed)


def frontier_sweep(
    tp: int,
    deadlines: list[int],
    base: dict | None = None,
) -> list[FrontierRow]:
    """One row per deadline, bracketed by the two corner strategies.

    ``base`` may carry ``latency``, ``seed``, ``G`` (gossip period for
    the LocalFirst row) and ``noise_reads``. The retransmit period is
    pinned to one tick so a healed link carries backlogged rounds on
    the next tick; anything slower would owe its own slack term.
    """
    base = read_json(base or {}, FRONTIER_FIELDS, "base")
    latency = base.get("latency", 1)
    seed = base.get("seed", 0)
    gossip = base.get("G", base.get("strategy", {}).get("G", 2))
    noise_reads = base.get("noise_reads", 0)
    check_range(tp, (1, None), "--tp")
    cleaned = sorted(set(deadlines))
    for d in cleaned:  # the meaningful range of a deadline
        check_range(d, (0, tp + 2 * latency), "--deadlines")
    top = max(cleaned, default=0)
    horizon = frontier_horizon(tp, top, latency)
    if horizon > MAX_HORIZON:  # the sweep's workload and runs grow with it
        raise ConfigError(
            f"--tp {tp}, --deadlines up to {top} and base.latency {latency} pass the frontier cap: "
            f"--tp + largest --deadlines + 6 * base.latency + {frontier_horizon(0, 0, 0)} "
            f"must be <= {MAX_HORIZON}, got {horizon}"
        )

    def row(label: str, deadline: int | None, strategy: StrategyParams, tc: int, ta: float):
        ok = bound_holds(tc, ta, tp, bound_slack(strategy, latency))
        return FrontierRow(label, deadline, tc, ta, tp, ok)

    def config(strategy: StrategyParams) -> ScenarioConfig:
        return build_frontier_config(
            tp, strategy, latency=latency, seed=seed, horizon=horizon, noise_reads=noise_reads
        )

    local = StrategyParams("LocalFirst", anti_entropy_period=gossip)
    (figure,) = deadline_figures(extract_history(run_scenario(config(local))), {}, [INFINITE])
    rows = [row("LocalFirst", None, local, *figure)]
    sync = StrategyParams("SyncAll", retransmit_period=1)
    figures = deadline_figures(*probed_run(config(sync), cleaned), [*cleaned, INFINITE])
    # a HybridDeadline row's slack is SyncAll's: no anti-entropy term
    rows += [row(str(d), d, sync, *f) for d, f in zip(cleaned, figures)]
    rows.append(row("SyncAll", None, sync, *figures[-1]))
    return rows


def probed_run(config: ScenarioConfig, deadlines: list[int]) -> tuple[History, dict]:
    """One run of the SyncAll ``config`` that notes every deadline's answers.

    Returns its history and ``{op: (last, pieces)}`` for the ops some
    HybridDeadline(D) answers at its deadline: the op's deadline-D answer,
    for each D <= ``last``, is the value of the last of ``pieces`` (pairs of
    first deadline and value) that starts at or before D, at tick invoke + D.
    """
    nodes = [
        DeadlineProbeNode(config.strategy, n, config.node_count, deadlines, config.message_latency)
        for n in range(config.node_count)
    ]
    history = extract_history(Simulation(config, nodes).run())
    answers = {}
    for node in nodes:
        answers.update(node.answers(config.horizon))
    return history, answers


def deadline_figures(synced: History, answers: dict, deadlines: list) -> list[tuple[int, float]]:
    """(tc, ta) of ``synced`` with each deadline's answers put in, one pair per deadline.

    An op in ``answers`` takes latency D and its piece's value at each
    deadline D up to its ``last``; past it, and for every other op, its
    ``synced`` figure stands. So a deadline of INFINITE answers nothing and
    its pair is ``synced``'s own. A read is scored once per piece and once for
    its ``synced`` answer, each covering a run of deadline positions, and
    one sweep over the positions takes each row's stalest read from a heap
    of the runs open there, the first unadmitted read (inf) highest. A
    piece is scored at its first deadline's tick: its value was in the
    node's state by then, and the frontier's writes carry distinct values,
    so the later ticks it answers at give the same staleness.
    """
    runs = [[] for _ in deadlines]  # staleness entries by first position
    slowest = [0] * len(deadlines)  # the top SyncAll latency of the ops first unanswered at each
    reach = -1  # the largest deadline some op answers at
    for i, op in enumerate(synced.records):
        last, pieces = answers.get(op.op_id, (-1, ()))
        stop = bisect_right(deadlines, last)  # the first position it is not answered at
        reach = max(reach, last)
        if stop < len(deadlines):
            latency = op.response_tick - op.invoke_tick if op.answered else INFINITE
            slowest[stop] = max(slowest[stop], latency)
        if op.kind != "read":
            continue
        bounds = [bisect_left(deadlines, first) for first, _ in pieces] + [stop]
        scored = [(lo, hi, op.invoke_tick + deadlines[lo], value)
                  for lo, hi, (_, value) in zip(bounds, bounds[1:], pieces) if lo < hi]
        if op.answered and stop < len(deadlines):
            scored.append((stop, len(deadlines), op.response_tick, op.returned))
        for lo, hi, tick, value in scored:
            needed = read_staleness(synced.index(op.key), op.invoke_tick, tick, value)
            runs[lo].append((-(INFINITE if needed is None else needed), i, hi, op.op_id, value))
    figures, open_runs, ta = [], [], 0
    for j, deadline in enumerate(deadlines):
        for entry in runs[j]:
            heappush(open_runs, entry)
        while open_runs and open_runs[0][2] <= j:
            heappop(open_runs)
        tc = -open_runs[0][0] if open_runs else 0
        if tc == INFINITE:
            raise unadmitted(*open_runs[0][3:])
        ta = max(ta, slowest[j])
        figures.append((tc, max(ta, deadline) if deadline <= reach else ta))
    return figures


def frontier_csv(rows: list[FrontierRow]) -> str:
    lines = ["D,tc,ta,tp,bound_ok"]
    lines.extend(",".join(row.csv_cells()) for row in rows)
    return "\n".join(lines) + "\n"
