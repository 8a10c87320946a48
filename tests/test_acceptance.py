"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
asserts carry the actual tolerances. Criteria 5 and 6 pin the fast
implementations against brute-force oracles from ``histgen``.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

from capsim.checker import (
    History,
    OperationRecord,
    check,
    empirical_availability_bound,
    extract_history,
    min_consistency_bound,
    valid_read_values,
)
from capsim.cli import main
from capsim.config import OP_FIELDS, ScenarioConfig, StrategyParams
from capsim.harness import (
    ProofReplaySpec,
    bound_slack,
    build_frontier_config,
    build_frontier_workload,
    build_proof_config,
    frontier_csv,
    frontier_sweep,
    proof_replay,
)
from capsim.kernel import run_scenario

from histgen import min_tc_oracle, partition_span_oracle, random_history, random_schedule


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


STRATEGY_SUITE = [
    StrategyParams("LocalFirst", anti_entropy_period=2),
    StrategyParams("LocalFirst", anti_entropy_period=4),
    StrategyParams("SyncAll", retransmit_period=2),
    StrategyParams("HybridDeadline", retransmit_period=2, deadline=0),
    StrategyParams("HybridDeadline", retransmit_period=2, deadline=4),
    StrategyParams("HybridDeadline", retransmit_period=2, deadline=8),
    StrategyParams("HybridDeadline", retransmit_period=2, deadline=12),
]

LATENCY = 1


def test_criterion_1_theorem_reproduction():
    claim_grid = [0, 1, 2, 3, 5, 8, 13, 21, 34]
    started = time.monotonic()
    runs = 0
    with criterion(1, "theorem reproduction"):
        for params in STRATEGY_SUITE:
            slack = bound_slack(params, LATENCY)
            for tp in (10, 20, 40):
                for ctc, cta in itertools.product(claim_grid, claim_grid):
                    if ctc + cta > tp - slack - 1:
                        continue
                    report = proof_replay(
                        ProofReplaySpec(
                            strategy=params, tp=tp, claimed_tc=ctc, claimed_ta=cta
                        )
                    )
                    runs += 1
                    assert report.violations, (
                        f"{params} tp={tp} claimed=({ctc},{cta}) "
                        f"produced a clean report"
                    )
        elapsed = time.monotonic() - started
        assert runs >= 900
        assert elapsed < 10.0, f"grid took {elapsed:.1f}s"


def _figure_history(reads=()):
    records = [
        OperationRecord(0, "write", "A", 0, 0, 0, written=2, answered=True),
        OperationRecord(1, "write", "A", 0, 3, 3, written=5, answered=True),
        OperationRecord(2, "write", "A", 0, 6, 6, written=4, answered=True),
    ]
    records += [
        OperationRecord(
            3 + i, "read", "A", 0, t, t, returned=v, answered=True
        )
        for i, (t, v) in enumerate(reads)
    ]
    return History(records)


def test_criterion_2_figure_vector():
    with criterion(2, "staleness window vectors"):
        history = _figure_history()
        assert valid_read_values(history, "A", 8, 8) == {2, 5, 4}
        assert valid_read_values(history, "A", 8, 0) == {4}
        sequence = zip(
            [8, 8, 9, 9, 10, 11, 12, 13, 14], [2, 5, 2, 2, 4, 5, 4, 4, 4]
        )
        report = check(_figure_history(list(sequence)), 8, 0)
        assert report.clean


def test_criterion_3_bound_over_the_frontier():
    with criterion(3, "frontier bound and tightness"):
        for tp, deadlines in (
            (12, [0, 2, 4, 6, 8, 10, 12]),
            (20, [0, 4, 8, 12, 16, 20]),
        ):
            rows = frontier_sweep(tp, deadlines, {"G": 2, "latency": LATENCY})
            for row in rows:
                total = row.empirical_tc_min + row.empirical_ta
                slack = 2 * LATENCY + (2 if row.label == "LocalFirst" else 0)
                assert row.bound_ok
                assert total >= tp - slack, f"row {row.label}: {total} < {tp - slack}"
                if row.deadline is not None:
                    assert total <= tp + 2 * LATENCY, (
                        f"deadline {row.deadline}: {total} > {tp + 2 * LATENCY}"
                    )


def _empirical(config):
    history = extract_history(run_scenario(config))
    return min_consistency_bound(history), empirical_availability_bound(history)


def test_criterion_4_corner_cases():
    with criterion(4, "corner cases"):
        gossip = 4
        frontier = build_frontier_config(
            10, StrategyParams("LocalFirst", anti_entropy_period=gossip)
        )
        # same-tick cross-node reads exercise the one-tick propagation edge
        extra = [
            {"t": t, "node": 1, "kind": "read", "key": "A", "val": None}
            for t in range(2, 26, 2)
        ]
        # the frontier scenario with its cut taken out
        healthy = ScenarioConfig.from_dict({
            "nodes": 2,
            "latency": LATENCY,
            "horizon": frontier.horizon,
            "strategy": {"kind": "LocalFirst", "G": gossip},
            "workload": [dict(zip(OP_FIELDS, op)) for op in build_frontier_workload(10)] + extra,
        })
        tc, ta = _empirical(healthy)
        assert ta == 0
        assert tc <= 2 * LATENCY + gossip

        tp = 10
        for params in STRATEGY_SUITE:
            assert tp > bound_slack(params, LATENCY)
            tc, ta = _empirical(build_frontier_config(tp, params))
            assert tc > 0 or ta > 0, f"{params} hit both corners"


def test_criterion_5_min_tc_oracle_equivalence():
    started = time.monotonic()
    with criterion(5, "staleness-bound oracle equivalence"):
        for seed in range(500):
            history = random_history(seed, max_ops=30, horizon=100, nodes=3)
            bound = min_consistency_bound(history)
            assert bound == min_tc_oracle(history)
            at = check(history, bound, math.inf)
            assert not [v for v in at.violations if v.kind == "consistency"]
            if bound > 0:
                below = check(history, bound - 1, math.inf)
                assert [v for v in below.violations if v.kind == "consistency"]
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_6_partition_span_oracle_equivalence():
    with criterion(6, "partition-span oracle equivalence"):
        for seed in range(200):
            schedule, horizon = random_schedule(seed, max_nodes=4, horizon=200)
            assert schedule.max_partition_span(horizon) == partition_span_oracle(
                schedule, horizon
            )


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "determinism"):
        scenarios = [
            build_proof_config(
                ProofReplaySpec(strategy=params, tp=14, claimed_tc=4, claimed_ta=4)
            )
            for params in (
                StrategyParams("LocalFirst", anti_entropy_period=2),
                StrategyParams("SyncAll", retransmit_period=2),
                StrategyParams("HybridDeadline", retransmit_period=2, deadline=4),
            )
        ]
        scenarios.append(
            build_frontier_config(
                10, StrategyParams("HybridDeadline", retransmit_period=1, deadline=6)
            )
        )
        scenarios.append(
            ScenarioConfig.from_dict(
                {
                    "nodes": 4,
                    "latency": 2,
                    "horizon": 60,
                    "seed": 11,
                    "partitions": [{"a": 1, "b": 2, "start": 9, "end": 31}],
                    "strategy": {"kind": "SyncAll", "R": 3},
                    "workload_gen": {"ops": 16, "keys": ["A", "B"], "span": [0, 50]},
                }
            )
        )
        for i, config in enumerate(scenarios):
            paths = [tmp_path / f"{i}_{j}.jsonl" for j in (0, 1)]
            reports = []
            for path in paths:
                trace = run_scenario(config)
                path.write_text(trace.to_jsonl(), encoding="utf-8", newline="\n")
                history = extract_history(trace)
                reports.append(check(history, 8, 8).to_json())
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert reports[0] == reports[1]
        sweeps = [
            frontier_csv(frontier_sweep(12, [0, 4, 8], {"seed": 5})) for _ in (0, 1)
        ]
        assert sweeps[0] == sweeps[1]


def test_moving_cut_limitation(tmp_path, capsys):
    """A documented limitation, not a criterion: the bound holds for a cut
    that stays in place, not for one that moves.

    ``tp`` counts the ticks a pair spends with no path of live links, but
    LocalFirst stores and forwards, so a value crosses a moving cut one hop
    at a time. On 3 nodes the link 0-1 is down over [10, 210) and node 2 is
    cut from node 1 on even 10-tick blocks and from node 0 on odd ones;
    node 0 writes and node 1 reads every tick. These numbers are pinned
    until the partition span accounts for such relays.
    """
    horizon = 220
    blocks = [
        {"a": 2, "b": 1 if k % 2 == 0 else 0, "start": 10 + 10 * k, "end": 20 + 10 * k}
        for k in range(20)
    ]
    workload = [
        op
        for t in range(horizon)
        for op in (
            {"t": t, "node": 0, "kind": "write", "key": "A", "val": t + 1},
            {"t": t, "node": 1, "kind": "read", "key": "A", "val": None},
        )
    ]
    config, trace = tmp_path / "relay.json", tmp_path / "relay.jsonl"
    config.write_text(json.dumps({
        "nodes": 3, "latency": 1, "horizon": horizon,
        "strategy": {"kind": "LocalFirst", "G": 2},
        "partitions": [{"a": 0, "b": 1, "start": 10, "end": 210}, *blocks],
        "workload": workload,
    }))
    assert main(["tp", str(config)]) == 0
    assert capsys.readouterr().out == "200\n"
    assert main(["simulate", str(config), "-o", str(trace)]) == 0
    args = ["check", str(trace), "--tc", "21", "--ta", "0", "--tp", "200", "--slack", "4"]
    assert main(args) == 1  # no violation of the declared bounds, but the bound fails
    report, verdict = capsys.readouterr().out.splitlines()
    assert json.loads(report) == {"empirical_ta": 0, "empirical_tc_min": 21, "violations": []}
    assert verdict == "bound tp=200 slack=4 holds=false"
    print("limitation (moving cut): tp 200, tc 21 + ta 0 < tp - slack 196, as documented")
