"""The input contract: any JSON given to any subcommand exits 0, 1 or 2.

Bad input exits 2 with a single ``config error:`` or ``trace error:``
line on stderr; no input may escape as a Python traceback or be coerced
into a different value.
"""

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim import harness
from capsim.cli import main
from capsim.config import (
    CONFIG_FIELDS,
    FRONTIER_FIELDS,
    MAX_GEN_OPS,
    MAX_HORIZON,
    MAX_NODES,
    OP_FIELDS,
    OUTAGE_FIELDS,
    PROOF_FIELDS,
    STRATEGY_FIELDS,
    ConfigError,
    ScenarioConfig,
    StrategyParams,
    describe,
    read_json,
)
from capsim.kernel import run_scenario
from histgen import dict_path_workload

CONFIG = {
    "nodes": 2,
    "horizon": 20,
    "latency": 1,
    "seed": 0,
    "partitions": [{"a": 0, "b": 1, "start": 8, "end": 12}],
    "strategy": {"kind": "HybridDeadline", "R": 2, "D": 3},
    "workload": [
        {"t": 2, "node": 0, "kind": "write", "key": "A", "val": 1},
        {"t": 9, "node": 1, "kind": "read", "key": "A", "val": None},
    ],
    "workload_gen": {"ops": 4, "keys": ["A", "B"], "read_fraction": 0.5, "span": [0, 15]},
}
SPEC = {
    "strategy": {"kind": "LocalFirst", "G": 4},
    "tp": 20,
    "claimed_tc": 5,
    "claimed_ta": 5,
    "t_start": 5,
    "n_a": 0,
    "n_b": 1,
    "nodes": 2,
    "latency": 1,
    "horizon": 40,
}
BASE = {"latency": 1, "seed": 0, "G": 2, "noise_reads": 2, "strategy": {"G": 2}}
TRACE = [
    json.loads(line)
    for line in run_scenario(ScenarioConfig.from_dict(CONFIG)).to_jsonl().splitlines()
]

# argv after the subcommand's input path
COMMANDS = {
    "simulate": [],
    "tp": [],
    "prove": [],
    "frontier": ["--tp", "4", "--deadlines", "0,2"],
    "check": ["--tc", "2", "--ta", "2", "--tp", "3"],
}


def run(command, text, *flags):
    """Run ``capsim <command> <file holding text> <flags>``: (exit code, stderr)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, path, *COMMANDS[command], *flags])
    return code, err.getvalue()


def trace_text(records):
    return "".join(json.dumps(r) + "\n" for r in records)


class _Huge(int):
    """An integer with a short repr, so that hypothesis can print its draws."""

    def __repr__(self):
        return "10**5000 - 1"


HUGE = _Huge(10**5000 - 1)  # 5000 digits: past Python's default limit of 4300 for int <-> str


@contextlib.contextmanager
def digits_unlimited():
    """Lift the int <-> str digit limit, so that json.dumps can write HUGE."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_DELETE = object()  # as a field value: drop the field


def with_field(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``."""
    if not path:
        return doc if value is _DELETE else value
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


_INVOKE = {"t": 1, "seq": 0, "ev": "invoke", "op": 0, "node": 0, "kind": "read", "key": "A", "val": None}
_RESPOND = {"t": 2, "seq": 1, "ev": "respond", "op": 0, "val": None}


def _unanswered(op):
    return {"t": 9, "seq": 2, "ev": "unanswered", "op": op}


# (subcommand, the change to a valid input, the whole of stderr): every
# refusal of a range, and the inputs that exited 1 with a traceback or 0 on
# a silently coerced value before the reader
REGRESSIONS = {
    "nodes null": (
        "simulate", {"nodes": None}, "config error: config.nodes must be an integer, got null"
    ),
    "workload item not an object": (
        "simulate", {"workload": [5]}, "config error: config.workload[0] must be an object, got 5"
    ),
    "partitions an object": (
        "simulate", {"partitions": {"a": 1}},
        "config error: config.partitions must be a list, got an object",
    ),
    "workload_gen a number": (
        "simulate", {"workload_gen": 3}, "config error: config.workload_gen must be an object, got 3"
    ),
    "workload_gen span of one tick": (
        "simulate", {"workload_gen": {"span": [5]}},
        "config error: config.workload_gen.span must be [lo, hi], got a list of 1",
    ),
    "workload_gen span backwards": (
        "simulate", {"workload_gen": {"span": [5, 3]}},
        "config error: config.workload_gen.span must have lo <= hi, got [5, 3]",
    ),
    "workload_gen without keys": (
        "simulate", {"workload_gen": {"keys": []}},
        "config error: config.workload_gen.keys must not be empty",
    ),
    "workload_gen span before tick 0": (
        "simulate", {"workload": [], "workload_gen": {"ops": 1, "span": [-3, -3]}},
        "config error: config.workload_gen.span must lie in [0, 19], got [-3, -3]",
    ),
    "workload_gen span past the horizon": (
        "simulate", {"horizon": 10, "workload": [], "workload_gen": {"ops": 3, "span": [5, 40]}},
        "config error: config.workload_gen.span must lie in [0, 9], got [5, 40]",
    ),
    "workload_gen span past the horizon, at a seed that draws inside it": (
        "simulate",
        {"horizon": 10, "seed": 2, "workload": [], "workload_gen": {"ops": 1, "span": [5, 40]}},
        "config error: config.workload_gen.span must lie in [0, 9], got [5, 40]",
    ),
    "workload_gen span past the horizon, no ops": (
        "simulate", {"horizon": 10, "workload": [], "workload_gen": {"ops": 0, "span": [5, 40]}},
        "config error: config.workload_gen.span must lie in [0, 9], got [5, 40]",
    ),
    "workload_gen span before tick 0, no ops": (
        "simulate", {"workload": [], "workload_gen": {"ops": 0, "span": [-3, -3]}},
        "config error: config.workload_gen.span must lie in [0, 19], got [-3, -3]",
    ),
    "op on an unknown node": (
        "simulate", ("workload", 0, "node", 2),
        "config error: config.workload[0].node must be in [0, 1], got 2",
    ),
    "write without a value": (
        "simulate", ("workload", 0, "val", None),
        "config error: config.workload[0].val must be an integer for a write, got null",
    ),
    "op past the horizon": (
        "simulate", ("workload", 1, "t", 20),
        "config error: config.workload[1].t must lie in [0, 19], got 20",
    ),
    "infinite horizon": (
        "simulate", '"horizon": 1e400', "config error: config.horizon must be an integer, got Infinity"
    ),
    "float val": (
        "simulate", ("workload", 0, "val", 1.5),
        "config error: config.workload[0].val must be an integer or null, got 1.5",
    ),
    "bool val": (
        "simulate", ("workload", 0, "val", True),
        "config error: config.workload[0].val must be an integer or null, got true",
    ),
    "float nodes": ("simulate", {"nodes": 2.7}, "config error: config.nodes must be an integer, got 2.7"),
    "string horizon": (
        "simulate", {"horizon": "20"}, 'config error: config.horizon must be an integer, got "20"'
    ),
    "int key": (
        "simulate", ("workload", 0, "key", 7), "config error: config.workload[0].key must be a string, got 7"
    ),
    "list key": (
        "simulate", ("workload", 0, "key", ["A"]),
        "config error: config.workload[0].key must be a string, got a list",
    ),
    "string keys": (
        "simulate", {"workload": [], "workload_gen": {"keys": "AB"}},
        'config error: config.workload_gen.keys must be a list, got "AB"',
    ),
    "frontier base strategy a number": (
        "frontier", {"strategy": 5}, "config error: base.strategy must be an object, got 5"
    ),
    "frontier base bool G": ("frontier", {"G": True}, "config error: base.G must be an integer, got true"),
    "frontier base float latency": (
        "frontier", {"latency": 1.9}, "config error: base.latency must be an integer, got 1.9"
    ),
    "proof spec float tp": (
        "prove", {**SPEC, "tp": 10.5}, "config error: spec.tp must be an integer, got 10.5"
    ),
    "proof spec bool claimed_ta": (
        "prove", {**SPEC, "claimed_ta": True}, "config error: spec.claimed_ta must be an integer, got true"
    ),
    "trace tick null": (
        "check", [{**_INVOKE, "t": None}], "trace error: line 1: invoke.t must be an integer, got null"
    ),
    "frontier base negative noise_reads": (
        "frontier", {"noise_reads": -3}, "config error: base.noise_reads must be in [0, 1000000], got -3"
    ),
    "frontier base noise_reads past the cap": (
        "frontier", {"noise_reads": 1000001},
        "config error: base.noise_reads must be in [0, 1000000], got 1000001",
    ),
    "frontier base G 0": ("frontier", {"G": 0}, "config error: base.G must be >= 1, got 0"),
    "frontier base latency 0": (
        "frontier", {"latency": 0}, "config error: base.latency must be >= 1, got 0"
    ),
    "proof spec tp 0": ("prove", {**SPEC, "tp": 0}, "config error: spec.tp must be >= 1, got 0"),
    "proof spec negative claim": (
        "prove", {**SPEC, "claimed_tc": -1}, "config error: spec.claimed_tc must be >= 0, got -1"
    ),
    "proof spec claim covering the span": (
        "prove", {**SPEC, "claimed_tc": 10, "claimed_ta": 10},
        "config error: claim window cannot sit strictly inside the partition; "
        "need claimed_tc + claimed_ta <= tp - 2",
    ),
    "proof spec n_b past the nodes": (
        "prove", {**SPEC, "n_b": 2}, "config error: spec.n_b must be in [0, 1], got 2"
    ),
    "proof spec negative n_a": (
        "prove", {**SPEC, "n_a": -1}, "config error: spec.n_a must be in [0, 1], got -1"
    ),
    "proof spec n_a equal to n_b": (
        "prove", {**SPEC, "n_b": 0}, "config error: spec.n_a and spec.n_b must differ, got 0 for both"
    ),
    "proof spec latency 0": (
        "prove", {**SPEC, "latency": 0}, "config error: spec.latency must be >= 1, got 0"
    ),
    "proof spec t_start before the warmup replicates": (
        "prove", {**SPEC, "t_start": 2},
        "config error: spec.t_start must be >= spec.latency + 2, got 2",
    ),
    "proof spec horizon inside the cut": (
        "prove", {**SPEC, "horizon": 24},
        "config error: spec.horizon must be >= spec.t_start + spec.tp, got 24",
    ),
    "proof spec default horizon past the cap": (
        "prove", {key: value for key, value in SPEC.items() if key != "horizon"} | {"tp": 999999},
        "config error: the default horizon t_start + tp + strategy.D + strategy.R + strategy.G "
        "+ 6 * latency + 4 must be <= 1000000, got 1000020",
    ),
    "strategy G 0": (
        "prove", {**SPEC, "strategy": {"kind": "LocalFirst", "G": 0}},
        "config error: spec.strategy.G must be >= 1, got 0",
    ),
    "strategy R 0": (
        "simulate", {"strategy": {"kind": "SyncAll", "R": 0}},
        "config error: config.strategy.R must be >= 1, got 0",
    ),
    "strategy negative D": (
        "prove", {**SPEC, "strategy": {"kind": "HybridDeadline", "D": -1}},
        "config error: spec.strategy.D must be >= 0, got -1",
    ),
    "unknown strategy kind": (
        "simulate", {"strategy": {"kind": "Quorum"}},
        'config error: config.strategy.kind must be one of "LocalFirst", "SyncAll", '
        '"HybridDeadline", got "Quorum"',
    ),
    "zero latency": ("simulate", {"latency": 0}, "config error: config.latency must be >= 1, got 0"),
    "op kind delete": (
        "simulate", ("workload", 0, "kind", "delete"),
        'config error: config.workload[0].kind must be one of "read", "write", got "delete"',
    ),
    "negative op tick": (
        "simulate", ("workload", 1, "t", -1), "config error: config.workload[1].t must be >= 0, got -1"
    ),
    "negative outage start": (
        "simulate", {"partitions": [{"a": 0, "b": 1, "start": -1, "end": 2}]},
        "config error: config.partitions[0].start must be >= 0, got -1",
    ),
    "outage on an unknown node": (
        "simulate", {"partitions": [{"a": -1, "b": 1, "start": 1, "end": 2}]},
        "config error: config.partitions[0] addresses unknown node -1",
    ),
    "HybridDeadline without D": (
        "simulate", {"strategy": {"kind": "HybridDeadline", "R": 2}},
        "config error: config.strategy: missing required field 'D'",
    ),
    "proof spec HybridDeadline without D": (
        "prove", {**SPEC, "strategy": {"kind": "HybridDeadline", "R": 2}},
        "config error: spec.strategy: missing required field 'D'",
    ),
    "trace duplicate response": (
        "check", [_INVOKE, _RESPOND, {**_RESPOND, "seq": 2}],
        "trace error: duplicate response for op 0",
    ),
    "trace unanswered marker for an unknown op": (
        "check", [_INVOKE, _RESPOND, _unanswered(7)],
        "trace error: unanswered marker for unknown op 7",
    ),
    "trace unanswered marker for an answered op": (
        "check", [_INVOKE, _RESPOND, _unanswered(0)],
        "trace error: unanswered marker for answered op 0",
    ),
    "trace response after its unanswered marker": (
        "check", [_INVOKE, {**_unanswered(0), "t": 5}, {**_RESPOND, "t": 6, "seq": 3}],
        "trace error: response for op 0 after its unanswered marker",
    ),
    "trace duplicate unanswered marker": (
        "check", [_INVOKE, _unanswered(0), {**_unanswered(0), "seq": 3}],
        "trace error: duplicate unanswered marker for op 0",
    ),
    "trace unanswered marker before its invoke": (
        "check", [{**_INVOKE, "t": 5}, {**_unanswered(0), "t": 2}],
        "trace error: op 0 is marked unanswered before it is invoked",
    ),
    "trace response one tick before its invoke": (
        "check", [{**_INVOKE, "t": 5}, {**_RESPOND, "t": 4}],
        "trace error: op 0 responds before it is invoked",
    ),
    # of two faults between operations, the one on the earlier line is named
    "trace response before its invoke, then a duplicate response": (
        "check", [{**_INVOKE, "t": 5}, {**_RESPOND, "t": 4}, {**_RESPOND, "t": 6, "seq": 2}],
        "trace error: op 0 responds before it is invoked",
    ),
    "trace invoke before tick 0, then a response for an unknown op": (
        "check", [{**_INVOKE, "t": -1}, {**_RESPOND, "op": 7}],
        "trace error: op 0 is invoked before tick 0",
    ),
}


def _write(**changes):
    return {"t": 1, "node": 0, "kind": "write", "key": "A", "val": 1, **changes}


# name -> (a config with more than one fault, the one error it gives): the
# first presence, type or range fault in table order wins, whether
# ScenarioConfig.__init__ or, for a config that does not convert, read_json
# names it; only then are the rules between fields checked: the strategy's,
# the partitions', the span's, then each op's in op-id order
MULTI_FAULT = {
    "no nodes, op on node 9": (
        {"nodes": 0, "workload": [_write(node=9)]}, "config.nodes must be in [1, 1024], got 0",
    ),
    "bad outage, bad op kind": (
        {"partitions": [{"a": 0, "b": 0, "start": 1, "end": 2}], "workload": [_write(kind="delete")]},
        'config.workload[0].kind must be one of "read", "write", got "delete"',
    ),
    "fractional tick, bad workload_gen": (
        {"workload": [_write(t=1.5)], "workload_gen": {"span": [5]}},
        "config.workload[0].t must be an integer, got 1.5",
    ),
    "missing t before bad node": (
        {"workload": [{"node": "x", "kind": 5, "key": "A"}]},
        "config.workload[0]: missing required field 't'",
    ),
    "bad node before missing key": (
        {"workload": [{"t": 1, "node": "x", "kind": "read"}]},
        'config.workload[0].node must be an integer, got "x"',
    ),
    "second op missing a field, third mistyped": (
        {"workload": [_write(), {"t": 1}, _write(key=None)]},
        "config.workload[1]: missing required field 'node'",
    ),
    "outage mistyped, op mistyped": (
        {"partitions": [{"a": 0, "b": 1, "start": 1, "end": True}], "workload": [_write(val="1")]},
        "config.partitions[0].end must be an integer, got true",
    ),
    "not an object among items": (
        {"workload": [_write(), [], {}]}, "config.workload[1] must be an object, got a list",
    ),
    "extra keys and a null key": (
        {"workload": [_write(extra=1, key=None)]},
        "config.workload[0].key must be a string, got null",
    ),
    "write without value, op on node 9": (
        {"workload": [_write(t=5, node=9), _write(t=2, val=None)]},
        "config.workload[1].val must be an integer for a write, got null",
    ),
    "op past horizon, op on node 9": (
        {"workload": [_write(t=12), _write(t=3, node=9)]},
        "config.workload[1].node must be in [0, 1], got 9",
    ),
    "negative tick, bad strategy": (
        {"strategy": {"kind": "Quorum"}, "workload": [_write(t=-1)]},
        'config.strategy.kind must be one of "LocalFirst", "SyncAll", "HybridDeadline", got "Quorum"',
    ),
    "outage past node count, zero latency": (
        {"latency": 0, "partitions": [{"a": 0, "b": 5, "start": 1, "end": 2}]},
        "config.latency must be >= 1, got 0",
    ),
    "outage past node count, outage backwards": (
        {"partitions": [{"a": 0, "b": 5, "start": 3, "end": 2}]},
        "config.partitions[0] addresses unknown node 5",
    ),
    "write without value, earlier op on node 9": (
        {"workload": [_write(t=5, val=None), _write(t=2, node=9)]},
        "config.workload[1].node must be in [0, 1], got 9",
    ),
    "write without value, HybridDeadline without D": (
        {"strategy": {"kind": "HybridDeadline"}, "workload": [_write(val=None)]},
        "config.strategy: missing required field 'D'",
    ),
    "write without value, outage past node count": (
        {"partitions": [{"a": 0, "b": 5, "start": 1, "end": 2}], "workload": [_write(val=None)]},
        "config.partitions[0] addresses unknown node 5",
    ),
    "one op: write without value, on node 9, past horizon": (
        {"workload": [_write(t=12, node=9, val=None)]},
        "config.workload[0].val must be an integer for a write, got null",
    ),
    "one op: on node 9, past horizon": (
        {"workload": [_write(t=12, node=9)]}, "config.workload[0].node must be in [0, 1], got 9",
    ),
    "span past horizon, HybridDeadline without D": (
        {"strategy": {"kind": "HybridDeadline"}, "workload_gen": {"span": [5, 40]}},
        "config.strategy: missing required field 'D'",
    ),
    "mistyped outage, HybridDeadline without D": (
        {"partitions": [{"a": 0, "b": 1, "start": 1, "end": True}], "strategy": {"kind": "HybridDeadline"}},
        "config.partitions[0].end must be an integer, got true",
    ),
    "zero latency, op without a key": (
        {"latency": 0, "workload": [{"t": 1, "node": 0, "kind": "read"}]}, "config.latency must be >= 1, got 0",
    ),
    "span past horizon, op on node 9": (
        {"workload": [_write(node=9)], "workload_gen": {"span": [5, 40]}},
        "config.workload_gen.span must lie in [0, 9], got [5, 40]",
    ),
}


@pytest.mark.parametrize("name", list(MULTI_FAULT))
def test_a_config_with_several_faults_names_the_first(name):
    change, message = MULTI_FAULT[name]
    doc = {"nodes": 2, "horizon": 10, **change}
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(doc)
    assert str(info.value) == message
    # tp builds no op, yet names the same fault
    for command in ("simulate", "tp"):
        assert run(command, json.dumps(doc)) == (2, f"config error: {message}\n")


@pytest.mark.parametrize("ops", [0, 1, 3])
def test_a_workload_gen_span_past_the_horizon_is_refused_at_every_seed(ops):
    for seed in range(10):  # the span is checked before any draw
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict({"nodes": 2, "horizon": 10, "seed": seed,
                                      "workload_gen": {"ops": ops, "span": [5, 40]}})
        assert str(info.value) == "config.workload_gen.span must lie in [0, 9], got [5, 40]"


def test_a_config_built_in_code_names_its_op_as_json_does():
    def refusal(ops):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(2, 10, workload=[tuple(op.values()) for op in ops])
        return str(info.value)

    assert refusal([_write(t=12), _write(t=3, node=9)]) == "config.workload[1].node must be in [0, 1], got 9"
    assert refusal([_write(t=12), _write(t=3)]) == "config.workload[0].t must lie in [0, 9], got 12"
    assert refusal([_write(t=5, node=9), _write(t=2, val=None)]) == (
        "config.workload[1].val must be an integer for a write, got null"
    )
    assert refusal([_write(t=3), _write(t=-1)]) == "config.workload[1].t must be >= 0, got -1"


def _outage(a=0, b=1, start=2, end=5):
    return a, b, start, end


def _op(t=1, node=0, kind="write", key="A", val=7):
    return t, node, kind, key, val


# name -> (ScenarioConfig's keyword arguments over 2 nodes and horizon 20,
# its refusal): first each field's type and range in CONFIG_FIELDS' order,
# listed items one by one in list order, then the rules between fields
CODE_REFUSALS = {
    "fractional tick": ({"workload": [_op(t=1.5)]}, "config.workload[0].t must be an integer, got 1.5"),
    "bool tick": ({"workload": [_op(t=True)]}, "config.workload[0].t must be an integer, got true"),
    "fractional node": ({"workload": [_op(node=0.5)]}, "config.workload[0].node must be an integer, got 0.5"),
    "bool node": ({"workload": [_op(node=True)]}, "config.workload[0].node must be an integer, got true"),
    "bool value": ({"workload": [_op(val=True)]},
                   "config.workload[0].val must be an integer or null, got true"),
    "a kind no history reads": ({"workload": [_op(kind="scan", val=None)]},
                                'config.workload[0].kind must be one of "read", "write", got "scan"'),
    "integer key": ({"workload": [_op(kind="read", key=5, val=None)]},
                    "config.workload[0].key must be a string, got 5"),
    "null key": ({"workload": [_op(kind="read", key=None, val=None)]},
                 "config.workload[0].key must be a string, got null"),
    "bytes key": ({"workload": [_op(kind="read", key=b"A", val=None)]},
                  "config.workload[0].key must be a string, got b'A'"),
    # op 1 comes first in op-id order, but a type fault is named in list order
    "list order before op-id order": ({"workload": [_op(t=5, kind="read", key=7, val=None),
                                                    _op(node=0.5, kind="read", val=None)]},
                                      "config.workload[0].key must be a string, got 7"),
    # tp would count the ticks before the run: 15 for a cut of 10 ticks
    "outage before the run": ({"partitions": [_outage(start=-5, end=10)]},
                              "config.partitions[0].start must be >= 0, got -5"),
    "fractional outage ticks": ({"partitions": [_outage(start=2.0, end=5.5)]},
                                "config.partitions[0].start must be an integer, got 2.0"),
    "outage on an unknown node": ({"partitions": [_outage(b=2)]},
                                  "config.partitions[0] addresses unknown node 2"),
    "outage on one node": ({"partitions": [_outage(a=1)]},
                           "config.partitions[0]: outage endpoints must differ, got 1"),
    "mistyped outage, mistyped op": ({"partitions": [_outage(end="5")], "workload": [_op(t=0.5)]},
                                     'config.partitions[0].end must be an integer, got "5"'),
    "outage on an unknown node, mistyped op": ({"partitions": [_outage(a=-1)], "workload": [_op(key=1)]},
                                               "config.workload[0].key must be a string, got 1"),
    # an item that does not unpack to one value per field; JSON has no such item
    "op of four fields": ({"workload": [_op(), (1, 0, "read", "A")]},
                          "config.workload[1] must hold 5 fields (t, node, kind, key, val), got 4"),
    "op of six fields": ({"workload": [(*_op(), 0)]},
                         "config.workload[0] must hold 5 fields (t, node, kind, key, val), got 6"),
    "outage of three fields": ({"partitions": [(0, 1, 2)]},
                               "config.partitions[0] must hold 4 fields (a, b, start, end), got 3"),
    "op that is no sequence": ({"workload": [5]},
                               "config.workload[0] must be a sequence of 5 fields (t, node, kind, key, val), got 5"),
    "mistyped outage, op of four fields": ({"partitions": [_outage(end="5")], "workload": [(1, 0, "read", "A")]},
                                           'config.partitions[0].end must be an integer, got "5"'),
    "outage of three fields, mistyped op": ({"partitions": [(0, 1, 2)], "workload": [_op(t=0.5)]},
                                            "config.partitions[0] must hold 4 fields (a, b, start, end), got 3"),
    # the single-valued fields and the strategy's, as JSON's ranges have them
    "zero latency": ({"message_latency": 0}, "config.latency must be >= 1, got 0"),
    "fractional latency": ({"message_latency": 1.5}, "config.latency must be an integer, got 1.5"),
    "no nodes": ({"node_count": 0}, "config.nodes must be in [1, 1024], got 0"),
    "too many nodes": ({"node_count": 1025}, "config.nodes must be in [1, 1024], got 1025"),
    "zero horizon": ({"horizon": 0}, "config.horizon must be in [1, 1000000], got 0"),
    "bool seed": ({"seed": True}, "config.seed must be an integer, got true"),
    "zero gossip period": ({"strategy": StrategyParams("LocalFirst", 0)},
                           "config.strategy.G must be >= 1, got 0"),
    "negative deadline": ({"strategy": StrategyParams("HybridDeadline", deadline=-1)},
                          "config.strategy.D must be >= 0, got -1"),
    "unknown strategy": ({"strategy": StrategyParams("Gossip")},
                         'config.strategy.kind must be one of "LocalFirst", "SyncAll", "HybridDeadline", '
                         'got "Gossip"'),
    "negative generated op count": ({"workload_gen": {"ops": -1}},
                                    "config.workload_gen.ops must be in [0, 1000000], got -1"),
    # CONFIG_FIELDS' order: latency, outages, strategy, ops
    "zero latency, mistyped outage": ({"message_latency": 0, "partitions": [_outage(end="5")]},
                                      "config.latency must be >= 1, got 0"),
    "mistyped outage, zero gossip period": ({"partitions": [_outage(end="5")],
                                             "strategy": StrategyParams("LocalFirst", 0)},
                                            'config.partitions[0].end must be an integer, got "5"'),
    "zero gossip period, mistyped op": ({"strategy": StrategyParams("LocalFirst", 0), "workload": [_op(t=0.5)]},
                                        "config.strategy.G must be >= 1, got 0"),
    # a list that is none, or a strategy that is no StrategyParams, at its field's turn
    "outages not a list": ({"partitions": 7}, "config.partitions must be a list, got 7"),
    "zero latency, outages not a list": ({"message_latency": 0, "partitions": 7},
                                         "config.latency must be >= 1, got 0"),
    "outages not a list, null strategy": ({"partitions": 7, "strategy": None},
                                          "config.partitions must be a list, got 7"),
    "ops not a list": ({"workload": 5}, "config.workload must be a list, got 5"),
    "ops a string": ({"workload": "ab"}, 'config.workload must be a list, got "ab"'),
    "zero gossip period, ops not a list": ({"strategy": StrategyParams("LocalFirst", 0), "workload": 5},
                                           "config.strategy.G must be >= 1, got 0"),
    "ops not a list, negative generated op count": ({"workload": "ab", "workload_gen": {"ops": -1}},
                                                    'config.workload must be a list, got "ab"'),
    "null strategy": ({"strategy": None}, "config.strategy must be an object, got null"),
    "strategy a plain tuple": ({"strategy": ("SyncAll",)}, "config.strategy must be an object, got a list"),
    "mistyped outage, null strategy": ({"partitions": [_outage(end="5")], "strategy": None},
                                       'config.partitions[0].end must be an integer, got "5"'),
    "null strategy, mistyped op": ({"strategy": None, "workload": [_op(t=0.5)]},
                                   "config.strategy must be an object, got null"),
}


def config_doc(fields):
    """The JSON text of ``ScenarioConfig(**fields)``, or None where JSON has no form for a value."""
    tables = {"partitions": OUTAGE_FIELDS, "workload": OP_FIELDS}
    doc = {}
    for key, (name, *_) in CONFIG_FIELDS.items():
        if name not in fields:
            continue
        value, table = fields[name], tables.get(name)
        if isinstance(value, StrategyParams):
            value = dict(zip(STRATEGY_FIELDS, value))
        elif table is not None and type(value) in (list, tuple):  # another value is its own JSON
            if any(type(item) is not tuple or len(item) != len(table) for item in value):
                return None
            value = [dict(zip(table, item)) for item in value]
        doc[key] = value
    try:
        return json.dumps(doc)
    except TypeError:  # JSON has no bytes
        return None


@pytest.mark.parametrize("name", list(CODE_REFUSALS))
def test_a_config_built_in_code_is_refused_as_its_json_is(name):
    fields, message = CODE_REFUSALS[name]
    fields = {"node_count": 2, "horizon": 20, **fields}
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(**fields)
    assert str(info.value) == message
    if (text := config_doc(fields)) is not None:
        assert run("simulate", text) == (2, f"config error: {message}\n")


def regression_input(command, change):
    base = {"nodes": 2, "horizon": 20, "workload": copy.deepcopy(CONFIG["workload"])}
    if command == "check":  # the records of the trace
        return trace_text(change)
    if isinstance(change, str):  # raw JSON text, for literals json.dumps never writes
        return json.dumps(base).replace('"horizon": 20', change)
    if isinstance(change, tuple):
        return json.dumps(with_field(base, change[:-1], change[-1]))
    if command == "frontier":
        return json.dumps(change)
    return json.dumps(change if command == "prove" else {**base, **change})


@pytest.mark.parametrize("name", list(REGRESSIONS))
def test_bad_input_exits_two_with_one_line(name):
    command, change, message = REGRESSIONS[name]
    assert run(command, regression_input(command, change)) == (2, message + "\n")


@pytest.mark.parametrize("name", [name for name, row in REGRESSIONS.items() if row[0] == "simulate"])
def test_tp_refuses_each_bad_scenario_config_as_simulate_does(name):
    # tp checks every op, listed or generated, though it builds none
    _, change, message = REGRESSIONS[name]
    text = regression_input("simulate", change)
    assert run("tp", text) == run("simulate", text) == (2, message + "\n")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_deeply_nested_json_exits_two_on_every_subcommand(command):
    code, err = run(command, "[" * 100_000 + "]" * 100_000)
    assert code == 2
    if command == "check":
        assert err == "trace error: line 1: value nested too deeply\n"
    else:
        assert err.startswith("config error: ") and err.endswith(" is nested too deeply to read\n")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["tp", "frontier", "check"])
def test_an_integer_past_the_digit_limit_exits_two_naming_the_input(command, tmp_path, capsys):
    path = tmp_path / "input.json"
    with digits_unlimited():
        if command == "check":
            path.write_text(trace_text(with_field(TRACE, (0, "seq"), HUGE)))
        else:
            path.write_text(json.dumps({**(BASE if command == "frontier" else CONFIG), "seed": HUGE}))
    assert main([command, str(path), *COMMANDS[command]]) == 2
    if command == "check":
        assert capsys.readouterr().err == "trace error: line 1: integer too long to read\n"
    else:
        assert capsys.readouterr().err == f"config error: {path} holds an integer too long to read\n"


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_a_file_that_is_not_utf8_exits_two_naming_it(command, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff{}")
    assert main([command, str(path), *COMMANDS[command]]) == 2
    assert capsys.readouterr().err == f"config error: {path} is not UTF-8 text\n"


@pytest.mark.parametrize(
    "deadlines, shown",
    [("1,x", '"x"'), ("0,1.5", '"1.5"'), ("0," + "9" * 5000, '"' + "9" * 36 + "...")],
    ids=["letter", "fraction", "5000 digits"],
)
def test_a_deadline_that_is_no_integer_exits_two_naming_it(deadlines, shown):
    message = f"config error: --deadlines: cannot read {shown} as an integer\n"
    assert run("frontier", json.dumps(BASE), "--deadlines", deadlines) == (2, message)


@pytest.mark.parametrize("command", ["simulate", "frontier"])
def test_unwritable_output_path_exits_two_naming_it(command, tmp_path, capsys):
    source = tmp_path / "input.json"
    source.write_text(json.dumps(CONFIG if command == "simulate" else BASE))
    target = tmp_path / "missing" / "out.txt"
    assert main([command, str(source), *COMMANDS[command], "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {target}: No such file or directory\n"


def test_caps_refuse_oversized_fields():
    cases = [
        ("simulate", {**CONFIG, "nodes": MAX_NODES + 1},
         f"config.nodes must be in [1, {MAX_NODES}], got {MAX_NODES + 1}"),
        ("simulate", {**CONFIG, "horizon": MAX_HORIZON + 1},
         f"config.horizon must be in [1, {MAX_HORIZON}], got {MAX_HORIZON + 1}"),
        ("simulate", with_field(CONFIG, ("workload_gen", "ops"), MAX_GEN_OPS + 1),
         f"config.workload_gen.ops must be in [0, {MAX_GEN_OPS}], got {MAX_GEN_OPS + 1}"),
        ("prove", {**SPEC, "nodes": MAX_NODES + 1},
         f"spec.nodes must be in [2, {MAX_NODES}], got {MAX_NODES + 1}"),
        ("prove", {**SPEC, "horizon": MAX_HORIZON + 1},
         f"spec.horizon must be in [1, {MAX_HORIZON}], got {MAX_HORIZON + 1}"),
    ]
    for command, doc, message in cases:
        assert run(command, json.dumps(doc)) == (2, f"config error: {message}\n")


@pytest.mark.parametrize("tp, deadlines, message", [
    ("1000000", "0,5", "--tp 1000000, --deadlines up to 5 and base.latency 1 pass the frontier cap: "
                       "--tp + largest --deadlines + 6 * base.latency + 22 must be <= 1000000, "
                       "got 1000033"),
    ("999972", "0", None),  # the cap at latency 1 and deadline 0: accepted, so a scenario is built
    ("999973", "0", "--tp 999973, --deadlines up to 0 and base.latency 1 pass the frontier cap: "
                    "--tp + largest --deadlines + 6 * base.latency + 22 must be <= 1000000, "
                    "got 1000001"),
    ("0", "0", "--tp must be >= 1, got 0"),
    ("4", "0,7", "--deadlines must be in [0, 6], got 7"),  # tp + 2 * latency
    ("4", "2,-1", "--deadlines must be in [0, 6], got -1"),
])
def test_frontier_refuses_tp_and_deadlines_past_their_caps_before_any_run(
    tp, deadlines, message, monkeypatch
):
    class Built(Exception):
        """The sweep reached its first scenario."""

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(harness, "build_frontier_config", build)
    if message is None:
        with pytest.raises(Built):
            run("frontier", json.dumps(BASE), "--tp", tp, "--deadlines", deadlines)
    else:
        assert run("frontier", json.dumps(BASE), "--tp", tp, "--deadlines", deadlines) == (
            2, f"config error: {message}\n"
        )


def test_valid_inputs_still_run():
    for command, doc in (("simulate", CONFIG), ("tp", CONFIG), ("prove", SPEC)):
        assert run(command, json.dumps(doc)) == (0, "")
    assert run("frontier", json.dumps(BASE)) in ((0, ""), (1, ""))
    assert run("check", trace_text(TRACE)) in ((0, ""), (1, ""))


def _readme_bounds(cell):
    """The range a README "Range and cap" cell opens with, as a field table states it."""
    number = r"(\d+|10\^\d+)"
    end = r"(?:$|[;,] )"
    value = lambda text: 10 ** int(text[3:]) if text.startswith("10^") else int(text)
    if match := re.match(rf"{number} to {number}{end}", cell):
        return value(match[1]), value(match[2])
    if match := re.match(rf">= {number}{end}", cell):
        return value(match[1]), None
    if match := re.match(rf"`[^`]+`(?:, `[^`]+`)*{end}", cell):
        return tuple(re.findall(r"`([^`]+)`", match[0]))
    return None


def test_readme_lists_every_field_the_reader_knows():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format")[1].split("\n## ")[0]

    def paths(table, prefix=""):
        """Each field's path in README's notation, with its range."""
        for key, (_, kind, _, bounds) in table.items():
            yield prefix + key, bounds
            if isinstance(kind, list):
                kind, key = kind[0], key + "[]"
            if isinstance(kind, dict):
                yield from paths(kind, f"{prefix}{key}.")

    # the scenario config, proof spec and frontier base tables, as field -> range
    tables = []
    for block in section.split("\n\n"):
        if block.startswith("| Field |"):
            tables.append({})
            for line in block.splitlines()[2:]:
                names, *_, cell = (part.strip() for part in line.strip("|").split("|"))
                tables[-1].update((name, _readme_bounds(cell)) for name in re.findall(r"`([^`]+)`", names))
    assert len(tables) == 3
    for rows, table in zip(tables, (CONFIG_FIELDS, PROOF_FIELDS, FRONTIER_FIELDS)):
        known = dict(paths(table))
        assert set(rows) <= set(known), set(rows) - set(known)
        # a proof spec's strategy fields are documented by the scenario config's rows
        documented = {**tables[0], **rows}
        for path, bounds in known.items():
            assert f"`{path}`" in section, path
            assert documented.get(path) == bounds, path


# -- fuzzing: one field of a valid input replaced by any JSON value -------


def _paths(doc, prefix=()):
    """Every path into ``doc``, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, value in items:
        yield from _paths(value, prefix + (step,))


TARGETS = [
    *((command, CONFIG, path) for command in ("simulate", "tp") for path in _paths(CONFIG)),
    *(("prove", SPEC, path) for path in _paths(SPEC)),
    *(("frontier", BASE, path) for path in _paths(BASE)),
    *(("check", TRACE, path) for path in _paths(TRACE) if len(path) == 2),
]

# small values, negatives, values just past each cap, and one past the digit limit
INTS = st.integers(-3, 40) | st.sampled_from(
    sorted({MAX_NODES + 1, MAX_HORIZON + 1, MAX_GEN_OPS + 1, HUGE})
)
JSON = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TARGETS), JSON | st.just(_DELETE))
def test_any_field_replaced_by_any_json_keeps_the_exit_code_contract(target, value):
    command, doc, path = target
    changed = with_field(doc, path, value)
    with digits_unlimited():
        text = trace_text(changed) if command == "check" else json.dumps(changed)
    code, err = run(command, text)
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if code == 2:
        assert err.startswith(("config error: ", "trace error: ")), err


# -- every ranged field, one step outside its range ------------------------


def outside(bounds):
    """The values just outside ``bounds``: one past either end, or a string not allowed."""
    if type(bounds[0]) is str:
        return st.text(max_size=8).filter(lambda text: text not in bounds)
    lo, hi = bounds
    return st.sampled_from([lo - 1] if hi is None else [lo - 1, hi + 1])


def _ranged(table, prefix=()):
    """(path into a document, range) of each ranged field; a list is entered at item 0."""
    for key, (_, kind, _, bounds) in table.items():
        if bounds is not None:
            yield prefix + (key,), bounds
        step = (key,)
        if isinstance(kind, list):
            kind, step = kind[0], (key, 0)
        if isinstance(kind, dict):
            yield from _ranged(kind, prefix + step)


def json_path(root, path):
    return root + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


RANGED = [
    *((command, CONFIG, "config", path, bounds)
      for command in ("simulate", "tp") for path, bounds in _ranged(CONFIG_FIELDS)),
    *(("prove", SPEC, "spec", path, bounds) for path, bounds in _ranged(PROOF_FIELDS)),
    *(("frontier", BASE, "base", path, bounds) for path, bounds in _ranged(FRONTIER_FIELDS)),
]


def test_every_ranged_field_has_a_target():
    assert {json_path(root, path) for _, _, root, path, _ in RANGED} >= {
        "config.nodes", "config.partitions[0].start", "config.strategy.G", "config.workload[0].kind",
        "config.workload_gen.ops", "spec.horizon", "spec.strategy.kind", "base.strategy.G",
    }


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANGED), st.data())
def test_a_value_just_outside_a_range_exits_two_naming_its_json_path(target, data):
    command, doc, root, path, bounds = target
    value = data.draw(outside(bounds))
    code, err = run(command, json.dumps(with_field(doc, path, value)))
    where = json_path(root, path)
    assert code == 2
    assert err.startswith(f"config error: {where} must be ") and err.count("\n") == 1, err
    assert err.endswith(f", got {describe(value)}\n"), err


# -- a config's ops against the dict path ----------------------------------


@st.composite
def scenario_docs(draw):
    """A scenario config with 0 to 60 listed ops on a few ticks, some with outages or generated ops.

    In half of them one op in ten has a fault: a field of the wrong type,
    a negative tick, or a break of a rule between its fields (off the
    nodes, past the horizon or a write without a value). One outage in
    four of those has one too: a field of the wrong type, a node off the
    nodes, one node, an empty interval or a negative start.
    """
    nodes, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    faulty = draw(st.booleans())
    ops = []
    for _ in range(draw(st.integers(0, 60))):
        fault = faulty and draw(st.integers(0, 9)) == 0 and draw(
            st.sampled_from(["t", "node", "val", "type", "negative"]))
        kind = draw(st.sampled_from(["read", "write"]))
        op = {
            "t": horizon + draw(st.integers(0, 2)) if fault == "t" else draw(st.integers(0, min(horizon - 1, 3))),
            "node": nodes if fault == "node" else draw(st.integers(0, nodes - 1)),
            "kind": "write" if fault == "val" else kind,
            "key": draw(st.sampled_from(["A", "B"])),
        }
        val = draw(st.sampled_from(["absent", None, "int"]))
        if op["kind"] == "write" and fault != "val":
            val = "int"
        elif fault == "val":
            val = draw(st.sampled_from(["absent", None]))
        if val != "absent":
            op["val"] = draw(st.integers(0, 9)) if val == "int" else None
        if fault == "type":
            op[draw(st.sampled_from(sorted(OP_FIELDS)))] = draw(WRONG)
        elif fault == "negative":
            op["t"] = draw(st.integers(-3, -1))
        ops.append(op)
    doc = {"nodes": nodes, "horizon": horizon, "seed": draw(st.integers(0, 1000)), "workload": ops}
    if draw(st.booleans()) and (nodes > 1 or faulty):
        doc["partitions"] = []
        for _ in range(draw(st.integers(0, 3))):
            fault = faulty and draw(st.integers(0, 3)) == 0 and draw(
                st.sampled_from(["type", "node", "one node", "empty", "negative"]))
            a, b = (0, 0) if nodes == 1 else draw(st.permutations(range(nodes)))[:2]
            start = draw(st.integers(0, horizon))
            outage = {"a": a, "b": b, "start": start, "end": start + draw(st.integers(1, horizon))}
            if fault == "type":
                outage[draw(st.sampled_from(sorted(OUTAGE_FIELDS)))] = draw(WRONG)
            elif fault == "node":
                outage[draw(st.sampled_from("ab"))] = draw(st.sampled_from([-1, nodes, nodes + 2]))
            elif fault == "one node":
                outage["b"] = outage["a"]
            elif fault == "empty":
                outage["end"] = start - draw(st.integers(0, 2))
            elif fault == "negative":
                outage["start"] = draw(st.integers(-3, -1))
            doc["partitions"].append(outage)
    if draw(st.booleans()):
        gen = {"ops": draw(st.integers(0, 30)),
               "keys": draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3)),
               "read_fraction": draw(st.sampled_from([0, 0.3, 0.5, 1]))}
        if draw(st.booleans()):
            lo = draw(st.integers(0, horizon - 1))
            gen["span"] = [lo, draw(st.integers(lo, horizon - 1))]
        doc["workload_gen"] = gen
    return doc


@settings(max_examples=200, deadline=None)
@given(scenario_docs())
def test_a_configs_ops_are_the_ops_of_the_dict_path(doc):
    expected = dict_path_workload(doc)
    try:
        config = ScenarioConfig.from_dict(doc)
    except ConfigError as exc:
        assert str(exc) == expected
        return
    ops = [(op.op_id, op.t, op.node, op.kind, op.key, op.val) for op in config.workload]
    assert ops == expected
    assert [type(op.val) for op in config.workload] == [type(op[-1]) for op in expected]


@settings(max_examples=200, deadline=None)
@given(scenario_docs())
def test_a_config_built_in_code_has_the_ops_or_the_refusal_of_its_json(doc):
    def scenario(build):
        try:
            config = build()
        except ConfigError as exc:
            return str(exc)
        schedule = config.partitions
        return ([(op.op_id, op.t, op.node, op.kind, op.key, op.val) for op in config.workload],
                schedule.outages, schedule.max_partition_span(config.horizon))

    cut = [(o["a"], o["b"], o["start"], o["end"]) for o in doc.get("partitions", [])]
    listed = [(op["t"], op["node"], op["kind"], op["key"], op.get("val")) for op in doc["workload"]]
    in_code = scenario(lambda: ScenarioConfig(doc["nodes"], doc["horizon"], partitions=cut, workload=listed,
                                              workload_gen=doc.get("workload_gen"), seed=doc["seed"]))
    assert in_code == scenario(lambda: ScenarioConfig.from_dict(doc))


# -- the reader of listed items against the generic object reader ---------

LISTED = {
    "config.workload": (OP_FIELDS, {"t": 1, "node": 0, "kind": "read", "key": "A"}),  # val absent
    "config.partitions": (OUTAGE_FIELDS, {"a": 0, "b": 1, "start": 2, "end": 5}),
}
# values no INT, STR or OPT slot takes all of: JSON true is no 1, 1.0 no tick
WRONG = st.sampled_from([True, False, 1.0, "1", None, [], {}, 0, "A"])


@st.composite
def listed_items(draw):
    """A list of op or outage items: about half the lists are whole, the
    rest have items broken in a few ways."""
    where = draw(st.sampled_from(sorted(LISTED)))
    table, valid = LISTED[where]
    broken = draw(st.booleans())
    items = []
    for _ in range(draw(st.integers(0, 5))):
        if broken and draw(st.integers(0, 7)) == 0:
            items.append(draw(JSON.filter(lambda v: not isinstance(v, dict))))
            continue
        item = {key: draw(st.integers(-1 if broken else 0, 3)) if type(value) is int else value
                for key, value in valid.items()}
        for _ in range(draw(st.integers(0, 2)) if broken else 0):
            key = draw(st.sampled_from(sorted(table)))
            change = draw(st.sampled_from(["missing", "wrong", "extra", "outside"]))
            if change == "missing":
                item.pop(key, None)
            elif change == "wrong":
                item[key] = draw(WRONG)
            elif change == "outside":
                bounds = table[key][3]
                item[key] = draw(outside(bounds) if bounds else WRONG)
            else:
                item[draw(st.text(max_size=3))] = draw(JSON)
        items.append(item)
    return where, table, items


def _outcome(read):
    try:
        return read()
    except ValueError as exc:  # a ConfigError, or describe() refusing HUGE
        return f"{type(exc).__name__}: {exc}"


def _reference(items, table, where):
    """The generic object reader over each item, naming the first that fails.

    Each item comes back as its values in table order, an absent one as None.
    """
    out = []
    for i, item in enumerate(items):
        try:
            fields = read_json(item, table, "")
        except ConfigError as exc:
            raise ConfigError(f"{where}[{i}]{exc}") from None
        out.append(tuple(fields.get(name) for name, *_ in table.values()))
    return out


@settings(max_examples=300, deadline=None)
@given(listed_items())
def test_listed_items_read_as_the_object_reader_reads_each(drawn):
    """A 2-node config of the drawn list refuses as the reference does, or
    gives its values to ``__init__`` from the conversion, never the fallback."""
    where, table, items = drawn
    name = where.removeprefix("config.")
    given_to_init = []

    class Seen(ScenarioConfig):
        def __init__(self, **fields):
            given_to_init.append(fields[name])
            super().__init__(**fields)

    before = copy.deepcopy(items)
    expected = _outcome(lambda: _reference(items, table, where))
    got = _outcome(lambda: Seen.from_dict({"nodes": 2, "horizon": 10, name: items}))
    if type(expected) is str:
        assert got == expected
    else:  # __init__'s rules between fields may still refuse the values
        assert given_to_init == [expected]
    assert items == before
