
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.checker import (
    bound_holds,
    empirical_availability_bound,
    extract_history,
    min_consistency_bound,
)
from capsim.config import ConfigError, StrategyParams
from capsim.harness import (
    FRONTIER_T_START,
    FRONTIER_TAIL,
    FrontierRow,
    ProofReplaySpec,
    bound_slack,
    build_frontier_config,
    build_proof_config,
    deadline_history,
    frontier_csv,
    frontier_sweep,
    probed_run,
    proof_replay,
)
from capsim.kernel import Simulation, run_scenario


LOCAL = StrategyParams("LocalFirst", anti_entropy_period=4)
SYNC = StrategyParams("SyncAll", retransmit_period=2)
HYBRID5 = StrategyParams("HybridDeadline", retransmit_period=2, deadline=5)


def violation_kinds(report):
    return {v.kind for v in report.violations}


class TestProofReplay:
    def test_local_first_loses_on_consistency(self):
        spec = ProofReplaySpec(strategy=LOCAL, tp=20, claimed_tc=5, claimed_ta=5)
        report = proof_replay(spec)
        assert "consistency" in violation_kinds(report)
        assert report.empirical_ta == 0

    def test_sync_all_loses_on_availability(self):
        spec = ProofReplaySpec(strategy=SYNC, tp=20, claimed_tc=5, claimed_ta=5)
        report = proof_replay(spec)
        assert "availability" in violation_kinds(report)
        assert "consistency" not in violation_kinds(report)

    def test_hybrid_deadline_loses_on_consistency(self):
        spec = ProofReplaySpec(strategy=HYBRID5, tp=20, claimed_tc=5, claimed_ta=5)
        report = proof_replay(spec)
        assert "consistency" in violation_kinds(report)

    def test_hybrid_with_a_tight_deadline_loses_on_availability(self):
        hybrid = StrategyParams("HybridDeadline", retransmit_period=2, deadline=12)
        spec = ProofReplaySpec(
            strategy=hybrid, tp=40, claimed_tc=30, claimed_ta=0
        )
        report = proof_replay(spec)
        assert report.violations

    def test_claims_covering_the_span_are_rejected(self):
        with pytest.raises(ConfigError):
            ProofReplaySpec(strategy=LOCAL, tp=10, claimed_tc=6, claimed_ta=4)

    def test_claims_that_cannot_fit_strictly_inside_are_rejected(self):
        with pytest.raises(ConfigError):
            ProofReplaySpec(strategy=LOCAL, tp=10, claimed_tc=5, claimed_ta=4)

    def test_partition_isolates_the_write_side_completely(self):
        spec = ProofReplaySpec(
            strategy=LOCAL, tp=12, claimed_tc=4, claimed_ta=2, node_count=3
        )
        config = build_proof_config(spec)
        sched = config.partitions
        assert sched.max_partition_span(config.horizon) == 12
        assert not sched.reachable(spec.t_start, 0, 1)
        assert not sched.reachable(spec.t_start, 0, 2)
        assert sched.reachable(spec.t_start, 1, 2)

    def test_replay_is_deterministic(self):
        spec = ProofReplaySpec(strategy=SYNC, tp=14, claimed_tc=3, claimed_ta=3)
        config = build_proof_config(spec)
        assert run_scenario(config).to_jsonl() == run_scenario(config).to_jsonl()


class TestBoundSlack:
    def test_gossip_strategies_add_their_period(self):
        assert bound_slack(LOCAL, 1) == 6
        assert bound_slack(StrategyParams("LocalFirst", anti_entropy_period=2), 2) == 6

    def test_round_strategies_pay_latency_only(self):
        assert bound_slack(SYNC, 1) == 2
        assert bound_slack(HYBRID5, 3) == 6


class TestFrontierSweep:
    def test_rows_cover_both_corners_and_every_deadline(self):
        rows = frontier_sweep(20, [8, 0, 4])
        assert [row.label for row in rows] == ["LocalFirst", "0", "4", "8", "SyncAll"]
        assert all(row.tp == 20 for row in rows)

    def test_every_row_satisfies_the_tradeoff_bound(self):
        rows = frontier_sweep(20, [0, 4, 8, 12, 16, 20])
        assert all(row.bound_ok for row in rows)

    def test_the_tradeoff_is_monotone_across_the_grid(self):
        rows = frontier_sweep(20, [0, 4, 8, 12, 16, 20])
        tas = [row.empirical_ta for row in rows]
        tcs = [row.empirical_tc_min for row in rows]
        assert tas == sorted(tas)
        assert tcs == sorted(tcs, reverse=True)

    def test_deadline_rows_sit_tight_against_the_bound(self):
        latency = 1
        rows = frontier_sweep(12, [0, 2, 4, 6, 8, 10, 12])
        for row in rows:
            if row.deadline is None:
                continue
            total = row.empirical_tc_min + row.empirical_ta
            assert 12 - 2 * latency <= total <= 12 + 2 * latency

    def test_out_of_range_deadlines_are_rejected(self):
        with pytest.raises(ConfigError):
            frontier_sweep(10, [-1])
        with pytest.raises(ConfigError):
            frontier_sweep(10, [13])

    def test_csv_format(self):
        rows = frontier_sweep(10, [0, 4])
        text = frontier_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "D,tc,ta,tp,bound_ok"
        assert lines[1].startswith("LocalFirst,")
        assert lines[-1] == ""
        assert len(lines) == len(rows) + 2
        for line in lines[1:-1]:
            label, tc, ta, tp, ok = line.split(",")
            assert tc.isdigit() and ta.isdigit() and tp == "10"
            assert ok in ("true", "false")

    def test_sweep_is_deterministic(self):
        assert frontier_sweep(14, [0, 6]) == frontier_sweep(14, [0, 6])

    def test_noise_reads_do_not_break_the_bound(self):
        rows = frontier_sweep(16, [0, 4, 8], {"noise_reads": 12, "seed": 3})
        assert all(row.bound_ok for row in rows)

    def test_frontier_workload_spans_the_cut_window(self):
        config = build_frontier_config(10, LOCAL)
        ticks = [op.t for op in config.workload]
        assert min(ticks) < FRONTIER_T_START
        assert max(ticks) > FRONTIER_T_START + 10
        kinds_by_node = {
            (op.node, op.kind) for op in config.workload
        }
        assert kinds_by_node == {(0, "write"), (1, "read")}


# -- the probed sweep against one simulation per row -------------------


def sweep_horizon(tp, deadlines, latency):
    return FRONTIER_T_START + tp + FRONTIER_TAIL + max(deadlines) + 6 * latency + 4


def oracle_histories(tp, deadlines, latency, seed, noise_reads, gossip):
    """(label, deadline, strategy, history) per row, one full run each."""
    horizon = sweep_horizon(tp, deadlines, latency)
    strategies = [("LocalFirst", None, StrategyParams("LocalFirst", anti_entropy_period=gossip))]
    strategies += [
        (str(d), d, StrategyParams("HybridDeadline", retransmit_period=1, deadline=d))
        for d in deadlines
    ]
    strategies.append(("SyncAll", None, StrategyParams("SyncAll", retransmit_period=1)))
    for label, deadline, strategy in strategies:
        config = build_frontier_config(
            tp, strategy, latency=latency, seed=seed, horizon=horizon, noise_reads=noise_reads
        )
        yield label, deadline, strategy, extract_history(run_scenario(config))


def oracle_row(tp, latency, label, deadline, strategy, history):
    tc = min_consistency_bound(history, time_ref="invoke")
    ta = empirical_availability_bound(history)
    ok = bound_holds(tc, ta, tp, bound_slack(strategy, latency))
    return FrontierRow(label, deadline, tc, ta, tp, ok)


def responses(history):
    return [(op.op_id, op.answered, op.response_tick, op.returned) for op in history.records]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 3),
    st.lists(st.integers(0, 46), max_size=5),
    st.sampled_from([0, 5, 20]),
    st.integers(0, 2**16),
)
def test_probed_histories_equal_one_run_per_deadline(tp, latency, extra, noise_reads, seed):
    cap = tp + 2 * latency
    deadlines = sorted({0, cap, *(d for d in extra if d <= cap)})
    base = {"latency": latency, "seed": seed, "noise_reads": noise_reads}
    oracle = list(oracle_histories(tp, deadlines, latency, seed, noise_reads, gossip=2))
    sync_config = build_frontier_config(
        tp, oracle[-1][2], latency=latency, seed=seed,
        horizon=sweep_horizon(tp, deadlines, latency), noise_reads=noise_reads,
    )
    synced, answers = probed_run(sync_config, deadlines)
    assert responses(synced) == responses(oracle[-1][3])
    for _, deadline, _, history in oracle[1:-1]:
        assert responses(deadline_history(synced, answers[deadline])) == responses(history)
    # each deadline's history is built beside the SyncAll one, never in it
    assert responses(synced) == responses(oracle[-1][3])
    rows = [oracle_row(tp, latency, *entry) for entry in oracle]
    assert frontier_sweep(tp, deadlines, base) == rows


def test_one_sweep_runs_two_simulations(monkeypatch):
    runs = []
    run = Simulation.run

    def counting_run(self):
        runs.append(self.config.strategy.kind)
        return run(self)

    monkeypatch.setattr(Simulation, "run", counting_run)
    rows = frontier_sweep(20, [0, 4, 8, 12, 16, 20, 22])
    assert len(rows) == 9
    assert runs == ["LocalFirst", "SyncAll"]
