
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsim import harness
from capsim.checker import (
    History,
    HistoryIntegrityError,
    OperationRecord,
    bound_holds,
    empirical_availability_bound,
    extract_history,
    min_consistency_bound,
)
from capsim.config import OP_FIELDS, STRATEGY_KINDS, ConfigError, ScenarioConfig, StrategyParams
from capsim.harness import (
    FRONTIER_T_START,
    FRONTIER_TAIL,
    FrontierRow,
    ProofReplaySpec,
    bound_slack,
    build_frontier_config,
    build_frontier_workload,
    build_proof_config,
    frontier_csv,
    frontier_horizon,
    frontier_sweep,
    probed_run,
    proof_replay,
)
from capsim.kernel import Simulation, run_scenario
from capsim.partitions import PartitionSchedule

from histgen import deadline_answers


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


def oracle_histories(tp, deadlines, latency, seed, noise_reads, gossip):
    """(label, deadline, strategy, history) per row, one full run each."""
    horizon = frontier_horizon(tp, max(deadlines), latency)
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


def deadline_history(synced, answers):
    """One deadline's history, from SyncAll's and that deadline's answers.

    An op answered at the deadline takes that tick and value; every other
    op keeps its SyncAll response, or stays unanswered. Answered ops get
    new records, so ``synced`` is never changed. The sweep builds no such
    history; this is the reference its rows are measured against.
    """
    return History([
        OperationRecord(op.op_id, op.kind, op.key, op.node, op.invoke_tick, a[0], op.written,
                        a[1], True)
        if (a := answers.get(op.op_id)) else op
        for op in synced.records
    ])


def noted(synced, answers, deadline):
    """``{op: (tick, value)}``: the probed run's answers at ``deadline``."""
    return deadline_answers(answers, {op.op_id: op.invoke_tick for op in synced.records}, deadline)


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
# at tick t + 3 HybridDeadline(3)'s timer, set at invoke, is queued ahead of a
# delivery sent at t + 1, so its answer is the state at the end of t + 2, which
# the probe's logs give, and not at the end of t + 3, which holds that delivery
@example(tp=1, latency=2, extra=[2, 3], noise_reads=0, seed=0)
def test_probed_histories_equal_one_run_per_deadline(tp, latency, extra, noise_reads, seed):
    cap = tp + 2 * latency
    deadlines = sorted({0, cap, *(d for d in extra if d <= cap)})
    base = {"latency": latency, "seed": seed, "noise_reads": noise_reads}
    oracle = list(oracle_histories(tp, deadlines, latency, seed, noise_reads, gossip=2))
    sync_config = build_frontier_config(
        tp, oracle[-1][2], latency=latency, seed=seed,
        horizon=frontier_horizon(tp, max(deadlines), latency), noise_reads=noise_reads,
    )
    synced, answers = probed_run(sync_config, deadlines)
    assert responses(synced) == responses(oracle[-1][3])
    for _, deadline, _, history in oracle[1:-1]:
        assert responses(deadline_history(synced, noted(synced, answers, deadline))) == responses(history)
    # each deadline's history is built beside the SyncAll one, never in it
    assert responses(synced) == responses(oracle[-1][3])
    rows = [oracle_row(tp, latency, *entry) for entry in oracle]
    assert frontier_sweep(tp, deadlines, base) == rows


@pytest.mark.parametrize("tp", [400, 1600])
def test_a_probed_frontier_run_sends_about_linearly_in_tp(monkeypatch, tp):
    # a retransmit sends each peer one batch of the requests still waiting on
    # it; one send per open round would make about tp**2 / 2 of them
    sends = 0
    reachable = PartitionSchedule.reachable

    def counting(self, t, a, b):  # the kernel tests reachability once per send
        nonlocal sends
        sends += 1
        return reachable(self, t, a, b)

    monkeypatch.setattr(PartitionSchedule, "reachable", counting)
    config = build_frontier_config(tp, StrategyParams("SyncAll", retransmit_period=1))
    probed_run(config, [0, tp])
    assert sends < 4 * tp + len(config.workload)


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


def read_ids(synced, op_ids):
    return sorted(op.op_id for op in synced.records if op.kind == "read" and op.op_id in op_ids)


def answered(answers, d):
    return {op_id for op_id, (last, _) in answers.items() if d <= last}


def spoil_a_response(synced, answers, answered_at, not_at):
    """The first read answered at deadline ``answered_at`` but not at ``not_at`` returns -1."""
    op_id = read_ids(synced, answered(answers, answered_at) - answered(answers, not_at))[0]
    next(op for op in synced.records if op.op_id == op_id).returned = -1


def spoil_an_answer(synced, answers, d, which):
    """The ``which``-th read answered at deadline ``d`` answers -2 there and nowhere else."""
    op_id = read_ids(synced, answered(answers, d))[which]
    last, pieces = answers[op_id]
    after = [v for first, v in pieces if first <= d + 1][-1]
    spoiled = [p for p in pieces if p[0] < d] + [(d, -2)]
    if d < last:
        spoiled.append((d + 1, after))
    answers[op_id] = last, spoiled + [p for p in pieces if p[0] > d + 1]


SPOILS = {
    "an answer": lambda s, a: spoil_an_answer(s, a, 8, -1),
    "a response": lambda s, a: spoil_a_response(s, a, 4, 16),
    "a response, then an earlier answer": lambda s, a: (
        spoil_a_response(s, a, 4, 16), spoil_an_answer(s, a, 16, -1)),
    "a response, then a later answer": lambda s, a: (
        spoil_a_response(s, a, 0, 4), spoil_an_answer(s, a, 4, 0)),
}


@pytest.mark.parametrize("spoil", SPOILS.values(), ids=SPOILS)
def test_a_read_no_budget_admits_is_the_one_its_rows_history_names(monkeypatch, spoil):
    # -1 and -2 are never written: the error names the first such read of the
    # first row that holds one, as measuring each row's own history does
    deadlines = [0, 4, 8, 16, 20]
    probe = harness.probed_run
    runs = []

    def spoiled(config, deadlines):
        synced, answers = probe(config, deadlines)
        spoil(synced, answers)
        runs.append((synced, answers))
        return synced, answers

    monkeypatch.setattr(harness, "probed_run", spoiled)
    with pytest.raises(HistoryIntegrityError) as info:
        frontier_sweep(20, deadlines)
    (synced, answers), = runs
    with pytest.raises(HistoryIntegrityError) as reference:
        for d in deadlines:
            min_consistency_bound(deadline_history(synced, noted(synced, answers, d)), time_ref="invoke")
        min_consistency_bound(synced, time_ref="invoke")
    assert str(info.value) == str(reference.value)


@pytest.mark.parametrize("deadlines", [[0], [0, 4, 8, 12, 16, 20, 22], list(range(23))])
def test_one_sweep_builds_two_histories(monkeypatch, deadlines):
    # the LocalFirst run's and the probed run's: no row builds its own
    built = []
    init = History.__init__

    def counting_init(self, records):
        built.append(len(records))
        init(self, records)

    monkeypatch.setattr(History, "__init__", counting_init)
    assert len(frontier_sweep(20, deadlines)) == len(deadlines) + 2
    assert len(built) == 2


# -- the built scenarios against the config dicts they once went through --


def strategy_dict(params):
    """``params`` as a config's ``strategy`` object, with the knobs its kind reads."""
    d = {"kind": params.kind}
    if params.kind == "LocalFirst":
        d["G"] = params.anti_entropy_period
    else:
        d["R"] = params.retransmit_period
    if params.kind == "HybridDeadline":
        d["D"] = params.deadline
    return d


def reference_proof_config(spec):
    """The proof scenario as a config dict, read by ``ScenarioConfig.from_dict``."""
    end = spec.t_start + spec.tp
    t = spec.t_start + 1
    warmup_tick = spec.t_start - spec.latency - 1
    workload = [
        {"t": warmup_tick, "node": spec.n_a, "kind": "write", "key": "A", "val": 100},
        {"t": t, "node": spec.n_a, "kind": "write", "key": "A", "val": 200},
        {"t": t + spec.claimed_tc, "node": spec.n_b, "kind": "read", "key": "A", "val": None},
    ]
    horizon = spec.horizon
    if horizon is None:
        params = spec.strategy
        horizon = end + params.deadline + params.retransmit_period + params.anti_entropy_period
        horizon += 6 * spec.latency + 4
    return ScenarioConfig.from_dict({
        "nodes": spec.node_count,
        "latency": spec.latency,
        "horizon": horizon,
        "seed": 0,
        "partitions": [
            {"a": spec.n_a, "b": other, "start": spec.t_start, "end": end}
            for other in range(spec.node_count)
            if other != spec.n_a
        ],
        "strategy": strategy_dict(spec.strategy),
        "workload": workload,
    })


def reference_frontier_config(tp, strategy, *, latency=1, seed=0, horizon=None, noise_reads=0):
    """One frontier scenario as a config dict, read by ``ScenarioConfig.from_dict``."""
    end = FRONTIER_T_START + tp
    if horizon is None:
        horizon = end + FRONTIER_TAIL + strategy.deadline + 6 * latency + 4
    d = {
        "nodes": 2,
        "latency": latency,
        "horizon": horizon,
        "seed": seed,
        "partitions": [{"a": 0, "b": 1, "start": FRONTIER_T_START, "end": end}],
        "strategy": strategy_dict(strategy),
        "workload": [dict(zip(OP_FIELDS, op)) for op in build_frontier_workload(tp)],
    }
    if noise_reads:
        d["workload_gen"] = {
            "ops": noise_reads, "keys": ["A"], "read_fraction": 1.0, "span": [0, horizon - 1],
        }
    return ScenarioConfig.from_dict(d)


def scenario(build):
    """What a run of ``build()``'s config depends on and writes, or that it was refused.

    A config dict's refusal names the JSON field and one built in code its op
    id, so only the fact of a refusal is compared.
    """
    try:
        config = build()
    except ConfigError:
        return "refused"
    ops = [(op.op_id, op.t, op.node, op.kind, op.key, op.val) for op in config.workload]
    return (config.node_count, config.horizon, config.message_latency, ops,
            config.partitions.outages, run_scenario(config).to_jsonl())


# every kind, with knobs its kind does not read too: a config dict drops those
STRATEGY_PARAMS = st.builds(
    StrategyParams, st.sampled_from(STRATEGY_KINDS), st.integers(1, 8), st.integers(1, 4),
    st.integers(0, 12),
)


@st.composite
def proof_specs(draw):
    latency = draw(st.integers(1, 3))
    nodes = draw(st.integers(2, 5))
    n_a, n_b = draw(st.lists(st.integers(0, nodes - 1), min_size=2, max_size=2, unique=True))
    tp = draw(st.integers(2, 40))
    claimed_tc = draw(st.integers(0, tp - 2))
    claimed_ta = draw(st.integers(0, tp - 2 - claimed_tc))
    t_start = draw(st.integers(latency + 2, latency + 12))
    horizon = draw(st.none() | st.integers(t_start + tp, t_start + tp + 30))
    return ProofReplaySpec(draw(STRATEGY_PARAMS), tp, claimed_tc, claimed_ta, t_start, n_a, n_b,
                           nodes, latency, horizon)


@settings(max_examples=60, deadline=None)
@given(proof_specs())
def test_the_proof_scenario_is_the_one_its_config_dict_gave(spec):
    built = scenario(lambda: build_proof_config(spec))
    assert built == scenario(lambda: reference_proof_config(spec))
    assert isinstance(built, tuple)


@settings(max_examples=60, deadline=None)
@given(
    STRATEGY_PARAMS,
    st.integers(1, 40),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from([0, 5, 20]),
    st.none() | st.integers(1, 130),
)
def test_a_frontier_scenario_is_the_one_its_config_dict_gave(
    strategy, tp, latency, seed, noise_reads, horizon
):
    kwargs = {"latency": latency, "seed": seed, "horizon": horizon, "noise_reads": noise_reads}
    built = scenario(lambda: build_frontier_config(tp, strategy, **kwargs))
    assert built == scenario(lambda: reference_frontier_config(tp, strategy, **kwargs))


# proof_replay(spec).to_json() and the sha256 of the scenario's trace, per spec
PROVE_PINS = [
    (
        ProofReplaySpec(LOCAL, 20, 5, 5),
        '{"empirical_ta": 0, "empirical_tc_min": 6, "violations": [{"op": 2, "kind": "consistency",'
        ' "detail": "returned 100, allowed {200}"}]}',
        "a5d66e3b139431b1b7aa9657b8a59cb9ef5a8f20a5c0517da372c7e1b549bd85",
    ),
    (
        ProofReplaySpec(SYNC, 20, 5, 5),
        '{"empirical_ta": 22, "empirical_tc_min": 0, "violations": [{"op": 1, "kind": "availability",'
        ' "detail": "latency 22 exceeds bound 5"}, {"op": 2, "kind": "availability",'
        ' "detail": "latency 17 exceeds bound 5"}]}',
        "1c35dce37ef8c1c85fb72675b8becfe50e6d6e63fce289bb8ed78f1532255c14",
    ),
    (
        ProofReplaySpec(HYBRID5, 20, 5, 5),
        '{"empirical_ta": 5, "empirical_tc_min": 11, "violations": [{"op": 2, "kind": "consistency",'
        ' "detail": "returned 100, allowed {200}"}]}',
        "0547a4c9c9d858afcc1d5ff343defa8aeb10e4f0d288e4952100dbd10d69f584",
    ),
    (
        ProofReplaySpec(LOCAL, 20, 5, 5, n_a=2, n_b=0, node_count=3),
        '{"empirical_ta": 0, "empirical_tc_min": 6, "violations": [{"op": 2, "kind": "consistency",'
        ' "detail": "returned 100, allowed {200}"}]}',
        "bad3c4b07836aeeaa3e11776d0936267b18e2a71dda8b48e958047b557e15086",
    ),
]


@pytest.mark.parametrize(
    "spec, report, digest", PROVE_PINS, ids=["LocalFirst", "SyncAll", "HybridDeadline", "3 nodes"]
)
def test_proof_replay_gives_its_pinned_report_and_trace(spec, report, digest):
    assert proof_replay(spec).to_json() == report
    trace = run_scenario(build_proof_config(spec)).to_jsonl()
    assert hashlib.sha256(trace.encode()).hexdigest() == digest
