import copy
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.checker import extract_history
from capsim.config import ScenarioConfig, StrategyParams
from capsim.harness import build_frontier_config
from capsim.kernel import Simulation, run_scenario
from capsim.strategies import DeadlineProbeNode, RegisterMap
from capsim.trace import Trace

from histgen import deadline_answers, flapping_schedule, random_schedule


def scenario(**overrides):
    base = {
        "nodes": 2,
        "latency": 1,
        "horizon": 40,
        "seed": 0,
        "partitions": [],
        "strategy": {"kind": "LocalFirst", "G": 4},
        "workload": [],
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


def responses(trace):
    return {r["op"]: r for r in trace.records if r["ev"] == "respond"}


def deadline_timers(trace):
    return Counter(
        (r["t"], r["node"], r["timer"])
        for r in trace.records
        if r["ev"] == "timer" and r["timer"].startswith("deadline:")
    )


def write(t, node, val, key="A"):
    return {"t": t, "node": node, "kind": "write", "key": key, "val": val}


def read(t, node, key="A"):
    return {"t": t, "node": node, "kind": "read", "key": key, "val": None}


class TestRegisterMap:
    def test_older_version_is_ignored(self):
        reg = RegisterMap()
        assert reg.merge("A", 5, (4, 0, 1))
        assert not reg.merge("A", 9, (3, 1, 1))
        assert reg.value("A") == 5

    def test_equal_tick_higher_node_wins(self):
        reg = RegisterMap()
        reg.merge("A", 1, (5, 1, 1))
        assert reg.merge("A", 2, (5, 2, 1))
        assert reg.value("A") == 2
        assert not reg.merge("A", 1, (5, 1, 1))

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_merge_order_does_not_matter(self, order):
        updates = [
            ("A", 10, (1, 0, 1)),
            ("A", 11, (1, 1, 1)),
            ("A", 12, (3, 0, 2)),
            ("B", 20, (2, 1, 2)),
            ("B", 21, (2, 1, 3)),
            ("A", 13, (3, 1, 2)),
        ]
        reg = RegisterMap()
        for i in order:
            reg.merge(*updates[i])
        expected = RegisterMap()
        for u in updates:
            expected.merge(*u)
        assert reg.items() == expected.items()


class TestLocalFirst:
    def test_write_and_read_answer_on_their_own_tick(self):
        cfg = scenario(workload=[write(5, 0, 1), read(9, 1)])
        got = responses(run_scenario(cfg))
        assert got[0]["t"] == 5
        assert got[1]["t"] == 9 and got[1]["val"] == 1

    def test_anti_entropy_heals_after_partition(self):
        # updates lost in [10,25) resurface with the first digest sent at 28
        cfg = scenario(
            partitions=[{"a": 0, "b": 1, "start": 10, "end": 25}],
            workload=[write(12, 0, 9), read(28, 1), read(29, 1)],
        )
        got = responses(run_scenario(cfg))
        assert got[1]["val"] is None
        assert got[2]["val"] == 9

    def test_replicas_converge_within_one_gossip_period_of_the_heal(self):
        # broadcasts lost in [4,12); the digests at tick 12 deliver at 13,
        # so both replicas agree within G + latency of gossip flowing again
        cfg = scenario(
            partitions=[{"a": 0, "b": 1, "start": 4, "end": 12}],
            workload=[write(2, 0, 1), write(6, 1, 2), write(9, 0, 3, key="B")],
            horizon=18,
        )
        sim = Simulation(cfg)
        sim.run()
        assert sim.nodes[0].registers.items() == sim.nodes[1].registers.items()
        assert sim.nodes[0].registers.value("A") == 2
        assert sim.nodes[0].registers.value("B") == 3


class TestSyncAll:
    def test_write_round_completes_after_one_round_trip(self):
        cfg = scenario(strategy={"kind": "SyncAll", "R": 2}, workload=[write(5, 0, 1)])
        got = responses(run_scenario(cfg))
        assert got[0]["t"] == 7  # send 5, deliver 6, ack 6, ack delivered 7

    def test_read_round_returns_the_freshest_version(self):
        cfg = scenario(
            strategy={"kind": "SyncAll", "R": 2},
            workload=[write(5, 0, 4), read(6, 1)],
        )
        got = responses(run_scenario(cfg))
        assert got[1]["val"] == 4
        assert got[1]["t"] == 8

    def test_response_implies_replication(self):
        cfg = scenario(
            nodes=3, strategy={"kind": "SyncAll", "R": 2}, workload=[write(5, 0, 4)]
        )
        sim = Simulation(cfg)
        trace = sim.run()
        respond_tick = responses(trace)[0]["t"]
        assert respond_tick == 7
        assert all(node.registers.value("A") == 4 for node in sim.nodes)
        # the round's payload reached every peer before the response
        round_msgs = {
            r["msg"]
            for r in trace.records
            if r["ev"] == "send" and r["src"] == 0 and r["t"] == 5
        }
        arrivals = [
            r for r in trace.records if r["ev"] == "deliver" and r["msg"] in round_msgs
        ]
        assert {r["dst"] for r in arrivals} == {1, 2}
        assert all(r["t"] <= respond_tick for r in arrivals)

    def test_idle_retransmit_timer_sends_nothing(self):
        cfg = scenario(strategy={"kind": "SyncAll", "R": 2}, horizon=15)
        trace = run_scenario(cfg)
        assert not [r for r in trace.records if r["ev"] == "send"]

    def test_blocked_round_answers_after_healing(self):
        cfg = scenario(
            strategy={"kind": "SyncAll", "R": 2},
            partitions=[{"a": 0, "b": 1, "start": 4, "end": 14}],
            workload=[write(5, 0, 1)],
        )
        got = responses(run_scenario(cfg))
        # first retransmit at a live tick is 14, delivered 15, acked 16
        assert got[0]["t"] == 16

    def test_duplicate_acks_from_retransmission_are_harmless(self):
        # latency 3 makes the first round trip slower than the retransmit
        # period, so the peer sees the same round message more than once
        cfg = scenario(
            latency=3,
            strategy={"kind": "SyncAll", "R": 2},
            workload=[write(5, 0, 1), read(6, 1)],
        )
        got = responses(run_scenario(cfg))
        assert set(got) == {0, 1}


class TestHybridDeadline:
    def test_deadline_answers_despite_a_dead_network(self):
        cfg = scenario(
            strategy={"kind": "HybridDeadline", "D": 4, "R": 2},
            partitions=[{"a": 0, "b": 1, "start": 0, "end": 39}],
            workload=[write(5, 0, 1)],
        )
        got = responses(run_scenario(cfg))
        assert got[0]["t"] == 9

    def test_completion_beats_a_generous_deadline(self):
        cfg = scenario(
            strategy={"kind": "HybridDeadline", "D": 8, "R": 2},
            workload=[write(5, 0, 1)],
        )
        trace = run_scenario(cfg)
        got = responses(trace)
        assert got[0]["t"] == 7
        assert sum(1 for r in trace.records if r["ev"] == "respond") == 1

    def test_zero_deadline_answers_at_invoke_from_local_state(self):
        cfg = scenario(
            strategy={"kind": "HybridDeadline", "D": 0, "R": 2},
            partitions=[{"a": 0, "b": 1, "start": 0, "end": 39}],
            workload=[write(5, 0, 1), read(7, 0), read(7, 1)],
        )
        got = responses(run_scenario(cfg))
        assert got[0]["t"] == 5
        assert got[1]["t"] == 7 and got[1]["val"] == 1  # local side sees the write
        assert got[2]["t"] == 7 and got[2]["val"] is None  # cut side is stale

    def test_stale_deadline_answer_then_round_still_replicates(self):
        cfg = scenario(
            strategy={"kind": "HybridDeadline", "D": 4, "R": 2},
            partitions=[{"a": 0, "b": 1, "start": 4, "end": 14}],
            workload=[write(5, 0, 1)],
        )
        sim = Simulation(cfg)
        trace = sim.run()
        assert responses(trace)[0]["t"] == 9  # deadline answer inside the cut
        assert sim.nodes[1].registers.value("A") == 1  # retransmit healed it

    def test_latency_never_exceeds_the_deadline_once_rounds_exist(self):
        for d, cut in itertools.product((1, 3, 6), (True, False)):
            partitions = (
                [{"a": 0, "b": 1, "start": 6, "end": 20}] if cut else []
            )
            cfg = scenario(
                strategy={"kind": "HybridDeadline", "D": d, "R": 2},
                partitions=partitions,
                workload=[write(5, 0, 1), read(8, 1), write(11, 1, 2), read(15, 0)],
            )
            trace = run_scenario(cfg)
            invokes = {r["op"]: r["t"] for r in trace.records if r["ev"] == "invoke"}
            for op, rec in responses(trace).items():
                assert rec["t"] - invokes[op] <= d


def probe(config, deadlines):
    """A run of ``config``'s SyncAll nodes as deadline probes: its trace and answers."""
    nodes = [
        DeadlineProbeNode(config.strategy, n, config.node_count, deadlines, config.message_latency)
        for n in range(config.node_count)
    ]
    trace = Simulation(config, nodes).run()
    answers = {}
    for node in nodes:
        answers.update(node.answers(config.horizon))
    return trace, answers


def invoked(trace):
    return {op.op_id: op.invoke_tick for op in extract_history(trace).records}


def answered(trace):
    """``{op: (tick, value)}`` of each response, from the history, which decodes no line."""
    return {op.op_id: (op.response_tick, op.returned)
            for op in extract_history(trace).records if op.answered}


def hybrid_answer(doc, deadline, op, period):
    hybrid = scenario(**doc, strategy={"kind": "HybridDeadline", "R": period, "D": deadline})
    got = responses(run_scenario(hybrid))[op]
    return got["t"], got["val"]


SCHEDULES = {
    "random": lambda seed: random_schedule(seed, max_nodes=6, horizon=80),
    "flapping": lambda seed: flapping_schedule(seed, max_nodes=6, horizon=80),
}


def without(trace, kinds):
    """The trace's records but those of ``kinds``, each without its seq."""
    return [{k: v for k, v in r.items() if k != "seq"} for r in trace.records if r["ev"] not in kinds]


def sends_by_tick_and_node(trace):
    return Counter((r["t"], r["src"]) for r in trace.records if r["ev"] == "send")


class TestDeadlineProbe:
    def test_probes_batch_retransmits_per_peer_and_name_their_timers_with_strings(self):
        doc = {
            "partitions": [{"a": 0, "b": 1, "start": 4, "end": 12}],
            "workload": [write(5, 0, 1), read(6, 1)],
            "horizon": 30,
        }
        cfg = scenario(**doc, strategy={"kind": "SyncAll", "R": 1})
        probed, answers = probe(cfg, [0, 1, 3, 20])

        # with at most one round open per peer, each batch holds one request
        # and the trace is SyncAll's but for the timers
        assert without(probed, {"timer"}) == without(run_scenario(cfg), {"timer"})
        timers = [r["timer"] for r in probed.records if r["ev"] == "timer"]
        probes = [t for t in timers if t != "retransmit"]
        # a timer only for D = 1 <= latency; the logs answer D = 3 and D = 20
        assert probes == ["deadline:0", "deadline:1"]
        assert Trace.from_jsonl(probed.to_jsonl()).records == probed.records
        # both rounds stay open until the heal at 12 and complete at 14; the
        # write reaches node 1 at 13, so the read's answer at D = 8 holds it
        assert answers == {0: (9, [(0, None)]), 1: (8, [(0, None), (8, 1)])}
        for d in (0, 1, 3, 7, 8):
            noted = deadline_answers(answers, invoked(probed), d)
            assert noted == {op: hybrid_answer(doc, d, op, 1) for op in (0, 1)}

        # two rounds of node 0 open across the cut: its ops and their answers
        # are SyncAll's, in the same order, but each retransmit tick writes one
        # send per peer, not one per round, and node 1 answers with one batch
        two = {**doc, "workload": [write(5, 0, 1), read(6, 0)]}
        cfg = scenario(**two, strategy={"kind": "SyncAll", "R": 1})
        probed, _ = probe(cfg, [0, 1, 3, 20])
        synced = run_scenario(cfg)
        not_ops = {"timer", "send", "deliver", "drop"}
        assert without(probed, not_ops) == without(synced, not_ops)
        # both answer at 14, from one batch of replies, so their order is the batch's
        assert [r["t"] for r in probed.records if r["ev"] == "respond"] == [14, 14]
        # SyncAll resends both requests on ticks 7-13, and node 1 answers each
        # on 13 and 14; tick 6 sends the read's request and the write's retransmit
        batched, single = sends_by_tick_and_node(probed), sends_by_tick_and_node(synced)
        resent = [(t, 0) for t in range(7, 14)] + [(13, 1), (14, 1)]
        assert all(single[at] == 2 for at in resent) and single[6, 0] == 2
        assert batched == {**single, **dict.fromkeys(resent, 1)}

    def test_a_probe_answers_with_the_freshest_reply_of_an_open_round(self):
        # node 1 misses the write at 4 and reads at 11; node 0's reply brings
        # the write at 13, while node 2, cut off from 8, keeps the round open
        def isolate(node, start, end):
            return [{"a": node, "b": b, "start": start, "end": end} for b in range(3) if b != node]

        doc = {
            "nodes": 3,
            "horizon": 30,
            "partitions": isolate(1, 3, 11) + isolate(2, 8, 40),
            "workload": [write(4, 0, 7), read(11, 1)],
        }
        config = scenario(**doc, strategy={"kind": "SyncAll", "R": 5})
        trace, answers = probe(config, [3, 5])
        noted = {d: deadline_answers(answers, invoked(trace), d) for d in (3, 5)}
        assert noted[3][1] == (14, 7) and noted[5][1] == (16, 7)
        for d in noted:
            assert hybrid_answer(doc, d, 1, 5) == noted[d][1]

    def test_answers_reads_the_notes_so_a_second_call_gives_what_the_first_did(self):
        # the reads of node 1 stay open across the cut, so their answers past
        # the latency come from the logs; reading them must not write them
        # into the rounds' notes, or the next call holds them twice
        config = build_frontier_config(
            20, StrategyParams("SyncAll", retransmit_period=1), latency=1, horizon=80
        )
        nodes = [DeadlineProbeNode(config.strategy, n, config.node_count, [0, 5, 10, 20], 1)
                 for n in range(config.node_count)]
        Simulation(config, nodes).run()
        for node in nodes:
            first = copy.deepcopy(node.answers(config.horizon))
            assert node.answers(config.horizon) == first
        assert first[7] == (23, [(0, 13), (23, 24)])

    @pytest.mark.parametrize("write_first, answer", [(True, 9), (False, None)])
    def test_a_timer_at_the_latency_sees_a_delivery_of_its_invoke_tick_as_its_own_run_does(
        self, write_first, answer
    ):
        # latency 2: node 1's write of tick 5 reaches node 0 at 7. Invoked
        # before node 0's read of tick 5 it lands ahead of the read's D = 2
        # timer, invoked after it lands behind; the end of tick 6 holds
        # neither, and a timer re-armed at 6 from D = 1 would see it either way
        ops = [write(5, 1, 9), read(5, 0)]
        doc = {"latency": 2, "horizon": 20, "workload": ops if write_first else ops[::-1]}
        config = scenario(**doc, strategy={"kind": "SyncAll", "R": 5})
        trace, answers = probe(config, [1, 2])
        op = 1 if write_first else 0
        assert deadline_answers(answers, invoked(trace), 2)[op] == (7, answer)
        for d in (1, 2):
            assert deadline_answers(answers, invoked(trace), d)[op] == hybrid_answer(doc, d, op, 5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.sampled_from(sorted(SCHEDULES)),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_probes_answer_as_each_hybrid_deadline_run_does(self, seed, schedule, latency, period):
        # up to 6 nodes, so that replies also arrive while a round stays open,
        # and a retransmit sends batches to several peers
        schedule, horizon = SCHEDULES[schedule](seed)
        doc = {
            "nodes": schedule.node_count,
            "latency": latency,
            "horizon": horizon,
            "seed": seed,
            "partitions": [
                {"a": o.a, "b": o.b, "start": o.start, "end": o.end} for o in schedule.outages
            ],
            "workload_gen": {"ops": 16, "keys": ["A", "B"], "span": [0, horizon - 1]},
        }
        deadlines = range(schedule.max_partition_span(horizon) + 2 * latency + 1)
        config = ScenarioConfig.from_dict({**doc, "strategy": {"kind": "SyncAll", "R": period}})
        probed, answers = probe(config, deadlines)
        synced, invokes = answered(probed), invoked(probed)
        assert extract_history(probed) == extract_history(run_scenario(config))
        hybrid_timers = Counter()
        for d in deadlines:
            hybrid = {"kind": "HybridDeadline", "R": period, "D": d}
            trace = run_scenario(ScenarioConfig.from_dict({**doc, "strategy": hybrid}))
            assert {**synced, **deadline_answers(answers, invokes, d)} == answered(trace)
            if d <= latency:
                hybrid_timers += deadline_timers(trace)
        # the probed run sets exactly the deadline timers HybridDeadline(D) runs set for D <= latency
        assert deadline_timers(probed) == hybrid_timers
