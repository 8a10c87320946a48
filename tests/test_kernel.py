import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.config import INT, STR, ConfigError, ScenarioConfig, StrategyParams
from capsim.harness import ProofReplaySpec, frontier_csv, frontier_sweep, proof_replay
from capsim.kernel import Simulation, SimulationError, run_scenario
from capsim.strategies import Respond, Send, SetTimer, StrategyNode
from capsim.trace import OPERATIONS, RECORD_FIELDS, RESTS, STAMP, TEMPLATES, Trace, scan_operations


def scenario(**overrides):
    base = {
        "nodes": 2,
        "latency": 1,
        "horizon": 20,
        "seed": 0,
        "partitions": [],
        "strategy": {"kind": "LocalFirst", "G": 4},
        "workload": [],
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


def responses(trace):
    return {r["op"]: r for r in trace.records if r["ev"] == "respond"}


def test_a_simulation_runs_once():
    sim = Simulation(scenario())
    sim.run()
    with pytest.raises(SimulationError) as refused:
        sim.run()
    assert str(refused.value) == "a Simulation object runs once; build a new one"


def test_single_node_write_then_read():
    cfg = scenario(
        nodes=1,
        workload=[
            {"t": 3, "node": 0, "kind": "write", "key": "A", "val": 1},
            {"t": 4, "node": 0, "kind": "read", "key": "A", "val": None},
        ],
    )
    trace = run_scenario(cfg)
    got = responses(trace)
    assert got[0]["t"] == 3  # write answers on its own tick
    assert got[1] == {"t": 4, "seq": got[1]["seq"], "ev": "respond", "op": 1, "val": 1}


def test_two_nodes_read_sees_write_after_one_latency():
    cfg = scenario(
        workload=[
            {"t": 5, "node": 0, "kind": "write", "key": "A", "val": 7},
            {"t": 6, "node": 1, "kind": "read", "key": "A", "val": None},
        ],
    )
    got = responses(run_scenario(cfg))
    assert got[1]["val"] == 7
    assert got[1]["t"] == 6


def test_identical_config_gives_identical_bytes():
    cfg_dict = {
        "nodes": 3,
        "latency": 1,
        "horizon": 40,
        "seed": 7,
        "partitions": [{"a": 0, "b": 1, "start": 5, "end": 15}],
        "strategy": {"kind": "SyncAll", "R": 2},
        "workload_gen": {"ops": 12, "keys": ["A", "B"], "span": [0, 30]},
    }
    first = run_scenario(ScenarioConfig.from_dict(cfg_dict)).to_jsonl()
    second = run_scenario(ScenarioConfig.from_dict(cfg_dict)).to_jsonl()
    assert first == second


def test_relay_delivery_crosses_a_direct_cut():
    cfg = scenario(
        nodes=3,
        partitions=[{"a": 0, "b": 1, "start": 0, "end": 30}],
        workload=[
            {"t": 2, "node": 0, "kind": "write", "key": "A", "val": 3},
            {"t": 4, "node": 1, "kind": "read", "key": "A", "val": None},
        ],
    )
    trace = run_scenario(cfg)
    assert not [r for r in trace.records if r["ev"] == "drop"]
    assert responses(trace)[1]["val"] == 3


def test_unreachable_send_becomes_a_drop_record():
    cases = [
        (2, (0, 30), 2, "drop"),
        (3, (0, 30), 2, "deliver"),  # direct link 0-1 down, relay via 2 live
        (2, (0, 10), 9, "drop"),  # last tick of the outage
        (2, (0, 10), 10, "deliver"),  # first healed tick
    ]
    for nodes, (start, end), t, settles in cases:
        cfg = scenario(
            nodes=nodes,
            partitions=[{"a": 0, "b": 1, "start": start, "end": end}],
            strategy={"kind": "LocalFirst", "G": 100},  # no gossip sends
            workload=[{"t": t, "node": 0, "kind": "write", "key": "A", "val": 3}],
        )
        records = run_scenario(cfg).records
        (send,) = [
            r for r in records if r["ev"] == "send" and (r["src"], r["dst"]) == (0, 1)
        ]
        (settled,) = [
            r for r in records if r["ev"] in ("deliver", "drop") and r["msg"] == send["msg"]
        ]
        assert send["t"] == t
        assert settled["ev"] == settles, (nodes, start, end, t)


def _transport_invariants(trace, latency, horizon):
    records = trace.records
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert all(a["t"] <= b["t"] for a, b in zip(records, records[1:]))
    sends = {}
    settled = {}
    for rec in trace.records:
        if rec["ev"] == "send":
            assert rec["msg"] not in sends
            sends[rec["msg"]] = rec
        elif rec["ev"] in ("deliver", "drop"):
            assert rec["msg"] in sends, "transport record without a send"
            assert rec["msg"] not in settled, "message settled twice"
            settled[rec["msg"]] = rec
            sent = sends[rec["msg"]]
            if rec["ev"] == "deliver":
                assert rec["t"] == sent["t"] + latency
            else:
                # dropped at send time, or truncated in flight at the horizon
                assert rec["t"] in (sent["t"], horizon)
    assert set(sends) == set(settled), "every send settles exactly once"


def _totality_invariant(trace):
    invokes = sum(1 for r in trace.records if r["ev"] == "invoke")
    responds = sum(1 for r in trace.records if r["ev"] == "respond")
    unanswered = sum(1 for r in trace.records if r["ev"] == "unanswered")
    assert invokes == responds + unanswered


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["LocalFirst", "SyncAll", "HybridDeadline"]),
    cut=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_randomized_runs_keep_kernel_invariants(seed, nodes, latency, kind, cut):
    strategy = {"kind": kind, "G": 3, "R": 2}
    if kind == "HybridDeadline":
        strategy["D"] = 4
    partitions = []
    if cut and nodes >= 2:
        partitions = [{"a": 0, "b": nodes - 1, "start": 8, "end": 20}]
    cfg = ScenarioConfig.from_dict(
        {
            "nodes": nodes,
            "latency": latency,
            "horizon": 36,
            "seed": seed,
            "partitions": partitions,
            "strategy": strategy,
            "workload_gen": {"ops": 10, "keys": ["A"], "span": [0, 30]},
        }
    )
    trace = run_scenario(cfg)
    _transport_invariants(trace, latency, 36)
    _totality_invariant(trace)
    assert trace.to_jsonl() == run_scenario(cfg).to_jsonl()


class _TwoTimers(StrategyNode):
    def on_init(self):
        return [SetTimer(5, "a"), SetTimer(5, "b")]

    def on_invoke(self, op, now):
        return []

    def on_message(self, payload, src, now):
        return []

    def on_timer(self, timer_id, now):
        return []


def test_timers_on_one_tick_fire_in_registration_order():
    cfg = scenario(nodes=1, horizon=10)
    sim = Simulation(cfg)
    sim.nodes[0] = _TwoTimers(cfg.strategy, 0, 1)
    trace = sim.run()
    fired = [r["timer"] for r in trace.records if r["ev"] == "timer"]
    assert fired == ["a", "b"]


class _TimerScript(StrategyNode):
    """A node that returns ``script[name]`` at init and when timer ``name`` fires."""

    def __init__(self, node_id, script):
        super().__init__(StrategyParams("LocalFirst"), node_id, 2)
        self.script = script

    def on_init(self):
        return self.script.get("init", [])

    def on_invoke(self, op, now):
        return []

    def on_message(self, payload, src, now):
        return []

    def on_timer(self, timer_id, now):
        return self.script.get(timer_id, [])


def test_a_tick_runs_its_queued_events_in_scheduling_order_then_its_invokes():
    # latency 2; everything below lands on tick 3, queued at ticks 0, 1, 1 and 2
    cfg = scenario(latency=2, workload=[
        {"t": 3, "node": 1, "kind": "read", "key": "A", "val": None},
        {"t": 3, "node": 0, "kind": "read", "key": "A", "val": None},
    ])
    nodes = [
        _TimerScript(0, {"init": [SetTimer(3, "first"), SetTimer(1, "x")],
                         "x": [Send(1, {}), SetTimer(2, "third")]}),
        _TimerScript(1, {"init": [SetTimer(2, "y")], "y": [SetTimer(1, "fourth")]}),
    ]
    records = Simulation(cfg, nodes).run().records
    at_3 = [(r["ev"], r.get("timer", r.get("msg", r.get("op")))) for r in records if r["t"] == 3]
    assert at_3 == [("timer", "first"), ("deliver", 0), ("timer", "third"),
                    ("timer", "fourth"), ("invoke", 0), ("invoke", 1)]


class _Scripted(StrategyNode):
    """A node whose handlers do what ``script`` says: each handler name
    maps to the actions it returns or to the exception it raises."""

    def __init__(self, node_id, script):
        super().__init__(StrategyParams("LocalFirst"), node_id, 2)
        self.script = script

    def _act(self, handler):
        step = self.script.get(handler, [])
        if isinstance(step, Exception):
            raise step
        return list(step)

    def on_init(self):
        return self._act("init")

    def on_invoke(self, op, now):
        return self._act("invoke")

    def on_message(self, payload, src, now):
        return self._act("message")

    def on_timer(self, timer_id, now):
        return self._act("timer")


# name -> (node 0's script, node 1's script, the whole error message); node
# 0 holds op 0 at tick 3, and its first message to node 1 lands at tick 1
KERNEL_ERRORS = {
    "send to itself": (
        {"init": [Send(0, {})]}, {},
        "node 0 sent to itself while initializing node 0",
    ),
    "unknown destination": (
        {"invoke": [Send(7, {})]}, {},
        "unknown destination 7 while handling invoke of op 0 at tick 3",
    ),
    "zero timer delay": (
        {"init": [SetTimer(2, "x")], "timer": [SetTimer(0, "y")]}, {},
        "timer delay must be an integer >= 1 tick, got 0 "
        "while handling timer 'x' on node 0 at tick 2",
    ),
    "duplicate response": (
        {"invoke": [Respond(0, None), Respond(0, 5)]}, {},
        "duplicate response for op 0 while handling invoke of op 0 at tick 3",
    ),
    # the trace writes an op id as an integer, so only an invoked op's id is one
    "response for a fractional op id": (
        {"invoke": [Respond(0.5, None)]}, {},
        "response for unknown op 0.5 while handling invoke of op 0 at tick 3",
    ),
    "response for a bool op id": (
        {"invoke": [Respond(True, None)]}, {},
        "response for unknown op True while handling invoke of op 0 at tick 3",
    ),
    "response for an op never invoked": (
        {"invoke": [Respond(77, None)]}, {},
        "response for unknown op 77 while handling invoke of op 0 at tick 3",
    ),
    # equal to op 0's id, and hashed alike, but no int
    "response for a bool op id equal to an invoked one": (
        {"invoke": [Respond(False, None)]}, {},
        "response for unknown op False while handling invoke of op 0 at tick 3",
    ),
    "response for a float op id equal to an invoked one": (
        {"invoke": [Respond(0.0, None)]}, {},
        "response for unknown op 0.0 while handling invoke of op 0 at tick 3",
    ),
    "response value a float": (
        {"invoke": [Respond(0, 1.5)]}, {},
        "response value for op 0 must be an integer or null, got 1.5 "
        "while handling invoke of op 0 at tick 3",
    ),
    "response value a string": (
        {"invoke": [Respond(0, "x")]}, {},
        "response value for op 0 must be an integer or null, got 'x' "
        "while handling invoke of op 0 at tick 3",
    ),
    "response value a bool": (
        {"invoke": [Respond(0, True)]}, {},
        "response value for op 0 must be an integer or null, got True "
        "while handling invoke of op 0 at tick 3",
    ),
    "unknown action": (
        {"init": [Send(1, {})]}, {"message": ["junk"]},
        "unknown action 'junk' while handling message 0 at tick 1",
    ),
    "invoke handler raises": (
        {"invoke": RuntimeError("boom")}, {},
        "strategy failed while handling invoke of op 0 at tick 3: boom",
    ),
    "message handler raises": (
        {"init": [Send(1, {})]}, {"message": RuntimeError("boom")},
        "strategy failed while handling message 0 at tick 1: boom",
    ),
    "timer handler raises": (
        {"init": [SetTimer(2, "x")], "timer": KeyError("k")}, {},
        "strategy failed while handling timer 'x' on node 0 at tick 2: 'k'",
    ),
    "handler raises SimulationError": (
        {"invoke": SimulationError("replica state is corrupt")}, {},
        "replica state is corrupt",
    ),
}


@pytest.mark.parametrize("name", list(KERNEL_ERRORS))
def test_kernel_errors_name_the_event(name):
    script_0, script_1, message = KERNEL_ERRORS[name]
    cfg = scenario(workload=[{"t": 3, "node": 0, "kind": "read", "key": "A", "val": None}])
    sim = Simulation(cfg, [_Scripted(0, script_0), _Scripted(1, script_1)])
    with pytest.raises(SimulationError) as info:
        sim.run()
    assert str(info.value) == message


# name -> (outages, node 0's actions at init, the whole error message). The
# trace writes a destination and a delay as integers and a timer id as a
# string, so an action whose field has another type is refused before it
# writes a line: else 1.5 and True would be written as 1, and 5 as an id.
MALFORMED_ACTIONS = {
    "fractional timer delay": (
        [], [SetTimer(1.5, "x")],
        "timer delay must be an integer >= 1 tick, got 1.5 while initializing node 0",
    ),
    "bool timer delay": (
        [], [SetTimer(True, "x")],
        "timer delay must be an integer >= 1 tick, got True while initializing node 0",
    ),
    "integer timer id": (
        [], [SetTimer(1, 5)],
        "timer id must be a string, got 5 while initializing node 0",
    ),
    "float destination under an outage": (
        [{"a": 0, "b": 1, "start": 0, "end": 5}], [Send(1.0, {})],
        "unknown destination 1.0 while initializing node 0",
    ),
    "float destination without outages": (
        [], [Send(1.0, {})],
        "unknown destination 1.0 while initializing node 0",
    ),
    "bool destination": (
        [], [Send(True, {})],
        "unknown destination True while initializing node 0",
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED_ACTIONS))
def test_kernel_refuses_a_malformed_action_field_before_any_line(name):
    outages, actions, message = MALFORMED_ACTIONS[name]
    nodes = [_Scripted(0, {"init": actions}), _Scripted(1, {})]
    sim = Simulation(scenario(partitions=outages), nodes)
    with pytest.raises(SimulationError) as info:
        sim.run()
    assert str(info.value) == message
    assert sim.trace.lines == []


@pytest.mark.parametrize(
    "ids, message",
    [((0,), "expected 2 nodes, got 1"), ((), "expected 2 nodes, got 0"),
     ((0, 1, 2), "expected 2 nodes, got 3"), ((1, 0), "nodes[0] has node_id 1"),
     ((0, 0), "nodes[1] has node_id 0")],
    ids=["short", "empty", "long", "swapped", "repeated"],
)
def test_a_nodes_list_needs_one_node_per_id_in_order(ids, message):
    with pytest.raises(SimulationError) as info:
        Simulation(scenario(), [_Scripted(i, {}) for i in ids])
    assert str(info.value) == message


def test_unanswered_ops_are_marked_at_horizon():
    # a SyncAll write against a partition that never heals inside the horizon
    cfg = scenario(
        strategy={"kind": "SyncAll", "R": 2},
        horizon=15,
        partitions=[{"a": 0, "b": 1, "start": 0, "end": 40}],
        workload=[{"t": 2, "node": 0, "kind": "write", "key": "A", "val": 5}],
    )
    trace = run_scenario(cfg)
    markers = [r for r in trace.records if r["ev"] == "unanswered"]
    assert markers == [{"t": 15, "seq": markers[0]["seq"], "ev": "unanswered", "op": 0}]
    _totality_invariant(trace)


# keys with every character the writer must escape, or a line splitter
# could mistake for a line end
KEY_TEXT = st.text(
    alphabet=st.sampled_from('A"\\/\u00e9\u2028\u2029\x85\n\r\x00\U0001f600') | st.characters(),
    max_size=4,
)


@given(
    kind=st.sampled_from(["LocalFirst", "SyncAll", "HybridDeadline"]),
    nodes=st.integers(min_value=1, max_value=4),
    latency=st.integers(min_value=1, max_value=3),
    outages=st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 39), st.integers(1, 60)
        ),
        max_size=4,
    ),
    ops=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 3), st.booleans(), KEY_TEXT, st.integers()),
        max_size=8,
    ),
)
@settings(max_examples=80, deadline=None)
def test_trace_lines_are_clean_json(kind, nodes, latency, outages, ops):
    # outages may outlast the horizon, so round-based strategies leave ops
    # unanswered; json.dumps per record is the reference for every byte
    partitions = [
        {"a": a % nodes, "b": b % nodes, "start": start, "end": start + length}
        for a, b, start, length in outages
        if a % nodes != b % nodes
    ]
    workload = [
        {"t": t, "node": node % nodes, "kind": "write" if write else "read",
         "key": key, "val": val if write else None}
        for t, node, write, key, val in ops
    ]
    strategy = {"kind": kind, "G": 3, "R": 2, "D": 4}
    trace = run_scenario(scenario(
        nodes=nodes, latency=latency, horizon=40, partitions=partitions,
        strategy=strategy, workload=workload,
    ))
    text = trace.to_jsonl()
    records = [json.loads(line) for line in trace.lines]
    for seq, (line, record) in enumerate(zip(trace.lines, records)):
        fields = (("t", INT), ("seq", INT), ("ev", STR), *RECORD_FIELDS[record["ev"]])
        assert list(record) == [name for name, _ in fields]
        assert all(type(record[name]) in types for name, types in fields)
        assert line == json.dumps(record) + "\n"
        assert record["seq"] == seq
    assert text == "".join(trace.lines)
    assert Trace.from_jsonl(text).records == trace.records == records
    # the kernel's operations are its operation records, in order, typed as
    # a reader of its text finds them
    assert trace.operations == list(scan_operations(text)) == [
        (r["ev"], (r["t"], *(r[name] for name, _ in RECORD_FIELDS[r["ev"]])))
        for r in records if r["ev"] in OPERATIONS
    ]


def _isolation(node, nodes, start, end):
    return [{"a": node, "b": other, "start": start, "end": end}
            for other in range(nodes) if other != node]


@pytest.mark.parametrize(
    "strategy", [{"kind": "SyncAll"}, {"kind": "HybridDeadline", "D": 3, "R": 2}]
)
def test_lines_on_two_digit_node_ids_are_clean_json(strategy):
    # link and timer pieces are cut per node id, and 12 nodes take ids
    # 10 and 11 through every transport and timer kind, some links down
    assert all(TEMPLATES[ev] == STAMP + "%d" + RESTS[ev] for ev in RECORD_FIELDS)
    nodes, horizon = 12, 60
    workload = [
        {"t": t, "node": (5 * t) % nodes, "kind": "write" if t % 3 else "read",
         "key": f"k{t % 4}", "val": t if t % 3 else None}
        for t in range(0, 50, 2)
    ]
    trace = run_scenario(scenario(
        nodes=nodes, horizon=horizon, strategy=strategy, workload=workload,
        partitions=_isolation(11, nodes, 5, 25) + _isolation(10, nodes, 30, 45),
    ))
    records = [json.loads(line) for line in trace.lines]
    for seq, (line, record) in enumerate(zip(trace.lines, records)):
        assert line == json.dumps(record) + "\n"
        assert record["seq"] == seq
    kinds = {r["ev"] for r in records}
    assert kinds >= {"invoke", "respond", "send", "deliver", "drop", "timer"}
    transport = [r for r in records if r["ev"] in ("send", "deliver", "drop")]
    assert {11, 10} <= {r["src"] for r in transport} & {r["dst"] for r in transport}
    assert any(r["ev"] == "drop" and 10 in (r["src"], r["dst"]) for r in records)
    assert {r["node"] for r in records if r["ev"] == "timer"} >= {10, 11}


# keys the writer must escape, each written through the trace's own cache
ESCAPED_KEYS = {
    "non-ASCII": "\u00e9", "quote": 'a"b', "backslash": "a\\b", "line separator": "\u2028",
}


@pytest.mark.parametrize("key", ESCAPED_KEYS.values(), ids=ESCAPED_KEYS.keys())
def test_string_fields_are_written_as_json_dumps_writes_them(key):
    write = {"t": 1, "node": 0, "kind": "write", "key": key, "val": 7}
    trace = run_scenario(scenario(nodes=1, workload=[write]))
    record = next(r for r in trace.records if r["ev"] == "invoke")
    assert record["key"] == key
    assert trace.lines[record["seq"]] == json.dumps(record) + "\n"
    assert f'"key": {json.dumps(key)},' in trace.lines[record["seq"]]
    assert trace.quoted.get(key) == json.dumps(key)
    assert key not in run_scenario(scenario(nodes=1)).quoted


class TestConfigValidation:
    def test_zero_nodes(self):
        with pytest.raises(ConfigError):
            scenario(nodes=0)

    def test_zero_latency(self):
        with pytest.raises(ConfigError):
            scenario(latency=0)

    def test_op_beyond_horizon(self):
        with pytest.raises(ConfigError):
            scenario(
                horizon=5,
                workload=[{"t": 5, "node": 0, "kind": "write", "key": "A", "val": 1}],
            )

    def test_unknown_node_in_workload(self):
        with pytest.raises(ConfigError):
            scenario(
                workload=[{"t": 1, "node": 9, "kind": "write", "key": "A", "val": 1}]
            )

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            scenario(strategy={"kind": "Quorum"})

    def test_write_without_value(self):
        with pytest.raises(ConfigError):
            scenario(
                workload=[{"t": 1, "node": 0, "kind": "write", "key": "A", "val": None}]
            )


# sha256 of to_jsonl() per (strategy, latency, outages) on the GOLDEN_*
# scenarios below, and of two frontier CSVs: any change to the kernel or
# the strategies that moves one trace byte or one CSV cell fails here
GOLDEN_STRATEGIES = {
    "LocalFirst": {"kind": "LocalFirst", "G": 3},
    "SyncAll": {"kind": "SyncAll", "R": 2},
    "HybridDeadline": {"kind": "HybridDeadline", "R": 2, "D": 5},
}
# the edges of the one deadline knob: D = 0 answers at invoke, and D = 1
# fires at the latency (1) or before it (2, 3)
GOLDEN_EDGE_STRATEGIES = {
    "HybridDeadline D=0": {"kind": "HybridDeadline", "R": 2, "D": 0},
    "HybridDeadline D=1": {"kind": "HybridDeadline", "R": 2, "D": 1},
}
GOLDEN_OUTAGES = {
    "none": [],
    # a lone node: its rounds have no peers, so each finishes at invoke
    "alone": [],
    # staggered link outages: node 0 is cut off in [20, 35), node 1 in [35, 40)
    "links": [
        {"a": a, "b": b, "start": start, "end": end}
        for a, b, start, end in ((0, 1, 10, 40), (0, 2, 15, 35), (0, 3, 20, 50),
                                 (1, 2, 30, 60), (1, 3, 35, 55))
    ],
    "isolation": [{"a": 3, "b": other, "start": 15, "end": 45} for other in range(3)],
}
GOLDEN_TRACES = {
    ("LocalFirst", 1, "none"): "e56d80ece0f8654def42a740aae318d05f8ad0cbbe1ff2bc0b65f348a0386a72",
    ("LocalFirst", 1, "links"): "74eb1c9f6457dcf7a0d6039ed4f7c7b7d2a2a5d0d42e9c6efb22bbb947cee452",
    ("LocalFirst", 1, "isolation"): "25d1b24976217745ea90bccf05500d2a85fbe7e237c1715d9250267bfc90e535",
    ("LocalFirst", 2, "none"): "333e3d4c73fc8380d80b796a8798e595b81b76cc1b84ccd6906d40e6a384895f",
    ("LocalFirst", 2, "links"): "30fd12d5c96a5827c8b6785b9a4c17b60f6d295c6e7ea4baad8337ec56311350",
    ("LocalFirst", 2, "isolation"): "f62b39d2a670979b675486287e1f6b9ccd7154c3367b69615522b57fc77c0230",
    ("LocalFirst", 3, "none"): "8ef166d7c32c335e759dfb951614c0f4110f78ef3253e0af7287b18137236799",
    ("LocalFirst", 3, "links"): "cf560d1699a124a978002a05f0591e2ba296db033fe7df9956a219ee2be53404",
    ("LocalFirst", 3, "isolation"): "474d183b0b611ca5a20f38c6a5d93c12069a0db2dda3cc9ed35cadaddbcf8c3d",
    ("SyncAll", 1, "none"): "1a41e841c97d0b9fee578b7250cfb328c9c1dd0acebaf6ea082ac510e9631581",
    ("SyncAll", 1, "links"): "70543f44da31097a1210e3aa0f549919d867051d7a696abada9035db24931d39",
    ("SyncAll", 1, "isolation"): "302d150fe1d634dfe92b6d7c066538d2ccda8adeaeacf83a1efda95e17d9aaf9",
    ("SyncAll", 2, "none"): "a8f47960c98306951fd2eb9a72cbc8c8450638263173a32d46ef9b072de7d298",
    ("SyncAll", 2, "links"): "332ec74c6365d82d626365ae9ea6d9cfa6224dca5b4c20b3a495bb37fe04c0e2",
    ("SyncAll", 2, "isolation"): "f236f86ddc927e342ef61d86d0c8adeccb32e74a002c6a9c370eaa0415385dcc",
    ("SyncAll", 3, "none"): "ba70e3c01946a28e4c8f08a41b60f7c3640eb296241ccbd03c4f05979d25e146",
    ("SyncAll", 3, "links"): "e0fb6962cdff32e61e65c2dd610b81b48e2a93e2afd8023ccec470769506aa32",
    ("SyncAll", 3, "isolation"): "33bffa0d726c85dd085eb60e8f47501842fa8e42c09d7fb5615cc7e52e470134",
    ("HybridDeadline", 1, "none"): "44d9e554d0758a0fb5f47f3d515f6dbc29ea5149b6daec6622793de53a415df6",
    ("HybridDeadline", 1, "links"): "984683ba15fca8539af61428d9a88b757ca675e0dea24699431b34ec8c55262e",
    ("HybridDeadline", 1, "isolation"): "3820a91dc9044e1f6d37c783b914d0390808868855893f8260528a27a103b5b5",
    ("HybridDeadline", 2, "none"): "7a6ab8ef5c886b318c5d4af92e0d5f1d1f58119d9e427b0964312cfe7ca2800e",
    ("HybridDeadline", 2, "links"): "9dae7cad806105bf6e99f8f1b0642ad7a3f28dfecab63caa2af117fc8e65bb43",
    ("HybridDeadline", 2, "isolation"): "95004b4e77b31c29ac75ac8260146931a00529e5ef407d35d5eb04d2f48d115e",
    ("HybridDeadline", 3, "none"): "69da353ad59edb07b2da40d73975ec2dc8579692d9ab98901fc3400620019c30",
    ("HybridDeadline", 3, "links"): "4073e563e0a64127393054b9ea2a1edcf18ce2e18a76b6d383dc8c43eec96253",
    ("HybridDeadline", 3, "isolation"): "4281b68d0557fe40427dd2fed9c8b41924e2044d1242bd5434eab24cf9e76599",
    ("HybridDeadline D=0", 1, "links"):
        "ff4e731fcd1bd68b35a021c44bb433fcd814ff9cafba1c845ff2a0ff2c12bbb3",
    ("HybridDeadline D=0", 2, "isolation"):
        "d6be45c20f555eeb893cadc20e775ee29cdcbcd4c9c23da7e02c405562582f39",
    ("HybridDeadline D=1", 1, "links"):
        "89cd216e43bd4469162d2f8628eed452c07ff369ce41250a31688194fdd2a04e",
    ("HybridDeadline D=1", 2, "links"):
        "f76ba5742450ee3cedb226505607ecd7b9b65740820ffae34015e80cdaa90616",
    ("HybridDeadline D=1", 3, "isolation"):
        "9855c437ba3fab7eb2a7e1299cec986a41bc4a9ca1af5144b3747cd954195e13",
    ("SyncAll", 1, "alone"):
        "4f1a53bd940bb408667bbb390c1525fe56fd5f24a5e869c150fb22b2c131088f",
    ("HybridDeadline", 1, "alone"):
        "2dd72f4f91975f71a197a7113130fc707f04412b327c8b550aa3e9214f7b0d7f",
    ("HybridDeadline D=0", 1, "alone"):
        "a2192bc0310560ccbc2fb4cbd9451f6b90f2eddf77a77a548e5c3ded832511b8",
}
GOLDEN_FRONTIERS = [
    (12, list(range(0, 17, 2)), {"latency": 2, "noise_reads": 10},
     "0d4c1d3c0ddb144aa5f058aba4cd2e0d2ba3b069da7b2e6506de80e3934ba03f"),
    (20, [0, 3, 9, 15, 24], {"latency": 2, "noise_reads": 25, "seed": 3, "G": 3},
     "d9147b27ccbf227d5b381cb78fa82cbb8b3f70ff8df93b1eb558ab32f90b45ff"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_trace(kind, latency, outages):
    return run_scenario(ScenarioConfig.from_dict({
        "nodes": 1 if outages == "alone" else 4, "latency": latency, "horizon": 80,
        "seed": latency * 7 + len(kind), "partitions": GOLDEN_OUTAGES[outages],
        "strategy": {**GOLDEN_STRATEGIES, **GOLDEN_EDGE_STRATEGIES}[kind],
        "workload_gen": {"ops": 30, "keys": ["A", "B"], "span": [0, 60]},
    }))


def test_golden_trace_and_frontier_digests():
    for (kind, latency, outages), digest in GOLDEN_TRACES.items():
        assert _sha256(_golden_trace(kind, latency, outages).to_jsonl()) == digest, (kind, latency, outages)
    for tp, deadlines, base, digest in GOLDEN_FRONTIERS:
        assert _sha256(frontier_csv(frontier_sweep(tp, deadlines, base))) == digest, tp


def test_golden_edge_rows_answer_at_invoke_or_time_out_by_their_deadline():
    for kind, latency, outages in GOLDEN_TRACES:
        if kind in GOLDEN_EDGE_STRATEGIES or outages == "alone":
            records = _golden_trace(kind, latency, outages).records
            invoked = {r["op"]: r["t"] for r in records if r["ev"] == "invoke"}
            timers = [r["timer"] for r in records if r["ev"] == "timer"]
            answered = {r["op"]: r["t"] - invoked[r["op"]] for r in records if r["ev"] == "respond"}
            assert len(answered) == len(invoked) == 30, (kind, latency, outages)
            if outages == "alone":  # no peer: no timer, and every round finishes at invoke
                assert timers == [] and set(answered.values()) == {0}
            elif kind == "HybridDeadline D=0":  # no deadline timer: every op answers at invoke
                assert set(answered.values()) == {0} and "retransmit" in timers
                assert not any(timer.startswith("deadline:") for timer in timers)
            else:  # D = 1: every op answers one tick after its invoke at the latest
                assert max(answered.values()) == 1 and any(t.startswith("deadline:") for t in timers)


# latency 3 under HybridDeadline timers of 2 and 5 ticks: the horizon finds
# messages due on three ticks, whose queues were made out of tick order
HORIZON_DROPS = {
    "nodes": 3, "latency": 3, "horizon": 40, "seed": 0,
    "strategy": {"kind": "HybridDeadline", "R": 2, "D": 5},
    "workload_gen": {"ops": 6, "keys": ["A"], "span": [20, 39]},
}


def test_horizon_drops_settle_by_due_tick_then_queue_order():
    trace = run_scenario(ScenarioConfig.from_dict(HORIZON_DROPS))
    assert _sha256(trace.to_jsonl()) == (
        "aedcf3baa6a9262682491371dcc8d5e80506f5bf17bbab7efab27cd27133be23")
    records = trace.records
    due = {rec["msg"]: rec["t"] + 3 for rec in records if rec["ev"] == "send"}
    settled = [rec["msg"] for rec in records if rec["ev"] == "drop" and rec["t"] == 40]
    assert len({due[msg] for msg in settled}) == 3
    # a queue holds its messages in send order, which is message id order
    assert settled == sorted(settled, key=lambda msg: (due[msg], msg))


def test_frontier_and_prove_make_no_trace_text(monkeypatch):
    # both read only a run's operations, so with every way to a trace's
    # text refused they still give the golden CSVs and the same reports
    specs = [ProofReplaySpec(StrategyParams(kind, deadline=5), tp=20, claimed_tc=5, claimed_ta=5)
             for kind in GOLDEN_STRATEGIES]
    reports = [proof_replay(spec).to_json() for spec in specs]

    def no_text(trace):
        raise AssertionError("trace text was made")

    monkeypatch.setattr(Trace, "chunks", no_text)
    with pytest.raises(AssertionError):
        run_scenario(scenario()).lines
    for tp, deadlines, base, digest in GOLDEN_FRONTIERS:
        assert _sha256(frontier_csv(frontier_sweep(tp, deadlines, base))) == digest, tp
    assert [proof_replay(spec).to_json() for spec in specs] == reports
