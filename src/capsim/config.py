"""Scenario configuration: node set, timing, faults, strategy, workload."""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import namedtuple
from operator import itemgetter

from .errors import ConfigError
from .partitions import LinkOutage, PartitionSchedule

# size caps: no single field may make a run allocate or loop without bound
MAX_NODES = 1024
MAX_HORIZON = 10**6
MAX_GEN_OPS = 10**6


# the bytes read at a time: a piece holds at most this plus one line. A
# 256 KiB block left about 0.25 MiB more resident after a small config read.
BLOCK = 1 << 16


def text_pieces(path):
    """The UTF-8 text of the file at ``path``, as pieces that each end a line.

    Every input is read here, once, a pipe such as ``/dev/stdin`` as a
    file: in blocks of ``BLOCK`` bytes, each decoded up to its last LF
    byte, which is never inside a multi-byte character. So the pieces join
    to the input's text, line endings as stored.
    """
    try:
        with open(path, "rb") as fh:
            partial = []  # the blocks of a line not yet ended, so a long line costs linear time
            while block := fh.read(BLOCK):
                cut = block.rfind(b"\n") + 1
                if not cut:
                    partial.append(block)
                    continue
                partial.append(block[:cut])
                yield b"".join(partial).decode()
                partial = [block[cut:]]
            if tail := b"".join(partial):
                yield tail.decode()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None


def load_json_object(path) -> dict:
    """Read a JSON file whose root must be an object; every failure is a ConfigError."""
    text = "".join(text_pieces(path))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path} is nested too deeply to read") from None
    except ValueError:  # json's one other refusal: an integer past Python's digit limit
        raise ConfigError(f"{path} holds an integer too long to read") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return data


# The JSON types, as the Python types json.load gives for each. bool is
# not an int here: JSON true is not 1, and 1.5 or "3" is no tick.
INT = frozenset({int})
OPT = frozenset({int, type(None)})
NUMBER = frozenset({int, float})
STR = frozenset({str})
_WORDS = {INT: "an integer", OPT: "an integer or null", NUMBER: "a number", STR: "a string"}

REQUIRED, OPTIONAL = True, False
STRATEGY_KINDS = ("LocalFirst", "SyncAll", "HybridDeadline")

# A field table describes a JSON object: each key maps to (the keyword it
# fills, its kind, whether it must be present, its range). A kind is a JSON
# type, a field table, or [kind] for a list of values of that kind. A range is
# None, (lo, hi) for the integers lo to hi (hi None: no end), or the strings allowed.
STRATEGY_FIELDS = {
    "kind": ("kind", STR, REQUIRED, STRATEGY_KINDS),
    "G": ("anti_entropy_period", INT, OPTIONAL, (1, None)),
    "R": ("retransmit_period", INT, OPTIONAL, (1, None)),
    "D": ("deadline", INT, OPTIONAL, (0, None)),
}
OUTAGE_FIELDS = {key: (key, INT, REQUIRED, (0, None) if key == "start" else None)
                 for key in ("a", "b", "start", "end")}
OP_FIELDS = {
    "t": ("t", INT, REQUIRED, (0, None)),
    "node": ("node", INT, REQUIRED, None),
    "kind": ("kind", STR, REQUIRED, ("read", "write")),
    "key": ("key", STR, REQUIRED, None),
    "val": ("val", OPT, OPTIONAL, None),
}
GEN_FIELDS = {
    "ops": ("ops", INT, OPTIONAL, (0, MAX_GEN_OPS)),
    "keys": ("keys", [STR], OPTIONAL, None),
    "read_fraction": ("read_fraction", NUMBER, OPTIONAL, None),
    "span": ("span", [INT], OPTIONAL, None),
}
CONFIG_FIELDS = {
    "nodes": ("node_count", INT, REQUIRED, (1, MAX_NODES)),
    "horizon": ("horizon", INT, REQUIRED, (1, MAX_HORIZON)),
    "latency": ("message_latency", INT, OPTIONAL, (1, None)),
    "seed": ("seed", INT, OPTIONAL, None),
    "partitions": ("partitions", [OUTAGE_FIELDS], OPTIONAL, None),
    "strategy": ("strategy", STRATEGY_FIELDS, OPTIONAL, None),
    "workload": ("workload", [OP_FIELDS], OPTIONAL, None),
    "workload_gen": ("workload_gen", GEN_FIELDS, OPTIONAL, None),
}
# harness.ProofReplaySpec
PROOF_FIELDS = {
    "strategy": ("strategy", STRATEGY_FIELDS, REQUIRED, None),
    "tp": ("tp", INT, REQUIRED, (1, None)),
    "claimed_tc": ("claimed_tc", INT, REQUIRED, (0, None)),
    "claimed_ta": ("claimed_ta", INT, REQUIRED, (0, None)),
    "nodes": ("node_count", INT, OPTIONAL, (2, MAX_NODES)),
    **{key: (key, INT, OPTIONAL, None) for key in ("t_start", "n_a", "n_b")},
    "latency": ("latency", INT, OPTIONAL, (1, None)),
    "horizon": ("horizon", INT, OPTIONAL, (1, MAX_HORIZON)),
}
# the base of harness.frontier_sweep
FRONTIER_FIELDS = {
    "latency": ("latency", INT, OPTIONAL, (1, None)),
    "seed": ("seed", INT, OPTIONAL, None),
    "G": ("G", INT, OPTIONAL, (1, None)),
    "noise_reads": ("noise_reads", INT, OPTIONAL, (0, MAX_GEN_OPS)),
    "strategy": ("strategy", {"G": ("G", INT, OPTIONAL, (1, None))}, OPTIONAL, None),
}


def describe(value) -> str:
    """``value`` as JSON writes it, cut to 40 characters; ``repr`` for a value JSON has no form for."""
    try:
        text = {list: "a list", tuple: "a list", dict: "an object"}.get(type(value)) or json.dumps(value)
    except (TypeError, ValueError):  # built in code, such as a bytes key
        text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check_range(value, bounds, where: str) -> None:
    """Refuse ``value`` outside ``bounds``, as ``config.latency must be >= 1, got 0``."""
    if type(bounds[0]) is str:
        if value in bounds:
            return
        words = "one of " + ", ".join(map(json.dumps, bounds))
    else:
        lo, hi = bounds
        if lo <= value and (hi is None or value <= hi):
            return
        words = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ConfigError(f"{where} must be {words}, got {describe(value)}")


def read_json(value, kind, where: str):
    """Check one JSON value against its kind, field by field in table order.

    An object comes back as a dict of keywords: an absent optional field is
    left out, so the class's default applies, and unknown fields are
    ignored; a list comes back as a list of its items. Presence, JSON type
    and each field's range are checked, so the first such fault is the one
    named; rules that span fields are the classes'. ``where`` names the
    value in errors. ``ScenarioConfig.from_dict`` reads a config here only to word a refusal.
    """
    if type(kind) is dict:
        if type(value) is not dict:
            raise ConfigError(f"{where} must be an object, got {describe(value)}")
        out = {}
        for key, (name, field_kind, required, bounds) in kind.items():
            try:
                field_value = value[key]
            except KeyError:
                if required:
                    raise ConfigError(f"{where}: missing required field {key!r}") from None
                continue
            if type(field_value) not in field_kind:  # a table or [kind] never holds a type
                field_value = read_json(field_value, field_kind, f"{where}.{key}")
            elif bounds is not None:
                check_range(field_value, bounds, f"{where}.{key}")
            out[name] = field_value
        return out
    if type(kind) is list:
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {describe(value)}")
        items = []
        try:
            for item in value:
                items.append(read_json(item, kind[0], ""))
        except ConfigError as exc:  # name the item only when it fails
            raise ConfigError(f"{where}[{len(items)}]{exc}") from None
        return items
    if type(value) not in kind:
        raise ConfigError(f"{where} must be {_WORDS[kind]}, got {describe(value)}")
    return value


class StrategyParams(
    namedtuple("StrategyParams", "kind anti_entropy_period retransmit_period deadline",
               defaults=(4, 2, 0))
):
    """Which replication strategy drives the nodes, and its knobs.

    ``anti_entropy_period`` (G) paces LocalFirst's digest gossip,
    ``retransmit_period`` (R) paces round retransmission for the
    round-based strategies, and ``deadline`` (D) caps how long a
    HybridDeadline node waits before answering with what it has.
    """

    __slots__ = ()

    @classmethod
    def from_fields(cls, fields: dict, where: str) -> "StrategyParams":
        """Build from the keywords of JSON object ``where``, which must state D for HybridDeadline."""
        if fields["kind"] == "HybridDeadline" and "deadline" not in fields:
            raise ConfigError(f"{where}: missing required field 'D'")
        return cls(**fields)


class ClientOp:
    """One scripted client request."""

    __slots__ = ("op_id", "t", "node", "kind", "key", "val")

    def __init__(self, op_id: int, t: int, node: int, kind: str, key: str, val: int | None = None):
        self.op_id, self.t, self.node = op_id, t, node
        self.kind, self.key, self.val = kind, key, val


def generate_workload(seed: int, node_count: int, horizon: int, *, ops: int = 10, keys=("A",),
                      read_fraction: float = 0.5, span=None):
    """A small seeded random workload: an iterator of ``(t, node, kind, key, val)``.

    The keyword arguments are ``GEN_FIELDS``'; ``span`` defaults to the
    whole run. They are checked now, and the ops drawn as they are read,
    by a deterministic RNG that keeps them reproducible from the arguments.
    """
    if not keys:
        raise ConfigError("config.workload_gen.keys must not be empty")
    if span is not None and len(span) != 2:
        raise ConfigError(f"config.workload_gen.span must be [lo, hi], got a list of {len(span)}")
    lo, hi = (0, horizon - 1) if span is None else span
    if lo > hi:
        raise ConfigError(f"config.workload_gen.span must have lo <= hi, got [{lo}, {hi}]")
    if lo < 0 or hi >= horizon:  # checked before any draw, so no seed or op count hides it
        raise ConfigError(f"config.workload_gen.span must lie in [0, {horizon - 1}], got [{lo}, {hi}]")

    def draw():
        rng, next_val = random.Random(seed), 1000
        for _ in range(ops):
            t, node, key = rng.randint(lo, hi), rng.randrange(node_count), rng.choice(keys)
            if rng.random() < read_fraction:
                yield t, node, "read", key, None
            else:
                yield t, node, "write", key, next_val
                next_val += 1

    return draw()


def _misshapen(items, table: dict, where: str) -> ConfigError | None:
    """The refusal of the first of ``items`` that holds other than one value per field of ``table``."""
    fields = f"{len(table)} fields ({', '.join(table)})"
    for i, item in enumerate(items):
        try:
            count = len(item)
        except TypeError:
            return ConfigError(f"{where}[{i}] must be a sequence of {fields}, got {describe(item)}")
        if count != len(table):
            return ConfigError(f"{where}[{i}] must hold {fields}, got {count}")
    return None


# the fields of a config that are single values, checked in ScenarioConfig.__init__
_SCALAR_FIELDS = {key: CONFIG_FIELDS[key] for key in ("nodes", "horizon", "latency", "seed")}
_OUTAGE_VALUES, _OP_VALUES = itemgetter(*OUTAGE_FIELDS), itemgetter("t", "node", "kind", "key")


def _present(obj: dict, table: dict) -> dict:
    """``obj``'s fields by ``table``'s keywords, by presence alone: a missing required one raises KeyError."""
    return {name: obj[key] for key, (name, _, required, _) in table.items() if required or key in obj}


class ScenarioConfig:
    """Everything one deterministic run needs.

    The keyword arguments are ``CONFIG_FIELDS``', whose tables hold each
    single field's range, such as a message latency of at least one tick,
    so that causality always moves the clock forward. ``partitions`` lists
    ``(a, b, start, end)`` tuples, such as ``LinkOutage``s, and ``workload``
    ``(t, node, kind, key, val)`` tuples; ``workload_gen`` and ``seed`` are
    ``generate_workload``'s. Here alone every field, op and outage is typed and
    ranged, in the words ``from_dict`` gives its JSON; the ops are built on first read.
    """

    def __init__(
        self,
        node_count: int,
        horizon: int,
        strategy: StrategyParams = StrategyParams("LocalFirst"),
        message_latency: int = 1,
        partitions: list | tuple = (),
        workload: list | tuple = (),
        workload_gen: dict | None = None,
        seed: int = 0,  # the kernel draws no randomness: only workload_gen reads it
    ):
        self.node_count, self.horizon, self.strategy, self.message_latency = (
            node_count, horizon, strategy, message_latency)
        # First each field's type and range in CONFIG_FIELDS' order: the scalars, each outage, the
        # strategy, each op, then workload_gen; one test per item, and read_json words a fault.
        read_json(dict(zip(_SCALAR_FIELDS, (node_count, horizon, message_latency, seed))),
                  _SCALAR_FIELDS, "config")
        if type(partitions) not in (list, tuple):
            raise ConfigError(f"config.partitions must be a list, got {describe(partitions)}")
        try:
            for i, (a, b, start, end) in enumerate(partitions):
                if not (type(a) is type(b) is type(start) is type(end) is int and start >= 0):
                    read_json(dict(zip(OUTAGE_FIELDS, partitions[i])), OUTAGE_FIELDS, f"config.partitions[{i}]")
            if not isinstance(strategy, StrategyParams):
                raise ConfigError(f"config.strategy must be an object, got {describe(strategy)}")
            read_json(dict(zip(STRATEGY_FIELDS, strategy)), STRATEGY_FIELDS, "config.strategy")
            if type(workload) not in (list, tuple):
                raise ConfigError(f"config.workload must be a list, got {describe(workload)}")
            kinds = OP_FIELDS["kind"][3]
            for i, (t, node, kind, key, val) in enumerate(workload):
                if not (type(t) is type(node) is int and t >= 0 and type(kind) is type(key) is str
                        and kind in kinds and (val is None or type(val) is int)):
                    read_json(dict(zip(OP_FIELDS, workload[i])), OP_FIELDS, f"config.workload[{i}]")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:  # an item that does not unpack to one value per field
            raise (_misshapen(partitions, OUTAGE_FIELDS, "config.partitions")
                   or _misshapen(workload, OP_FIELDS, "config.workload") or exc) from None
        if workload_gen is not None:
            workload_gen = read_json(workload_gen, GEN_FIELDS, "config.workload_gen")
        # Then the rules between fields: each outage's, the span's, then the ops'.
        outages = []
        for i, item in enumerate(partitions):
            for node in item[:2]:
                if not 0 <= node < node_count:
                    raise ConfigError(f"config.partitions[{i}] addresses unknown node {node}")
            try:
                outages.append(LinkOutage(*item))
            except ValueError as exc:
                raise ConfigError(f"config.partitions[{i}]: {exc}") from None
        self.partitions = PartitionSchedule(node_count, tuple(outages))
        # the span is checked now; the ops are drawn when first read
        drawn = () if workload_gen is None else generate_workload(seed, node_count, horizon, **workload_gen)
        # The first listed op, in op-id order ((t, index), as numbering's stable sort orders
        # them), that breaks a rule between its fields; generated ops keep them all.
        fault = min(((t, i) for i, (t, node, kind, _, val) in enumerate(workload)
                     if not (0 <= node < node_count and t < horizon) or val is None and kind == "write"),
                    default=None)
        if fault is not None:
            t, i = fault
            _, node, kind, _, val = workload[i]
            if val is None and kind == "write":
                raise ConfigError(f"config.workload[{i}].val must be an integer for a write, got null")
            if not 0 <= node < node_count:
                raise ConfigError(f"config.workload[{i}].node must be in [0, {node_count - 1}], got {node}")
            raise ConfigError(f"config.workload[{i}].t must lie in [0, {horizon - 1}], got {t}")
        self._unbuilt = workload, drawn

    @functools.cached_property
    def workload(self) -> tuple[ClientOp, ...]:
        """The listed then the generated ops, in tick order, drawn and numbered when first read.

        The sort is stable: same-tick ops keep their order, listed before
        generated. Each op replaces its tuple as it is built, so the tuples
        go as the ops come.
        """
        ops = sorted(itertools.chain(*self.__dict__.pop("_unbuilt")), key=itemgetter(0))
        for op_id, op in enumerate(ops):
            ops[op_id] = ClientOp(op_id, *op)
        return tuple(ops)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """The config of JSON object ``d``: converted here by presence only, typed by ``__init__``.

        One that does not convert goes to ``read_json``, which names its first fault in table order.
        """
        try:
            fields = _present(d, CONFIG_FIELDS)
            if type(outages := fields.get("partitions")) is list:
                fields["partitions"] = list(map(_OUTAGE_VALUES, outages))
            if type(ops := fields.get("workload")) is list:
                fields["workload"] = [(*_OP_VALUES(op), op.get("val")) for op in ops]
            if type(s := fields.get("strategy")) is dict:  # JSON must state D for HybridDeadline
                fields["strategy"] = StrategyParams.from_fields(_present(s, STRATEGY_FIELDS), "config.strategy")
            if fields.get("workload_gen", ()) is None:  # __init__ reads None as absent
                raise TypeError("workload_gen")
        except (KeyError, TypeError, ConfigError):
            fields = read_json(d, CONFIG_FIELDS, "config")
            if "strategy" in fields:
                StrategyParams.from_fields(fields["strategy"], "config.strategy")
            raise  # a config these two take converts: this is a fault in the conversion
        return cls(**fields)

    @classmethod
    def read(cls, path) -> "ScenarioConfig":
        return cls.from_dict(load_json_object(path))
