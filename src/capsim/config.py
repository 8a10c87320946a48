"""Scenario configuration: node set, timing, faults, strategy, workload."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .partitions import PartitionSchedule


class ConfigError(ValueError):
    """The scenario description is invalid."""


def load_json_object(path) -> dict:
    """Read a JSON file whose root must be an object; every failure is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return data


STRATEGY_KINDS = ("LocalFirst", "SyncAll", "HybridDeadline")


@dataclass(frozen=True)
class StrategyParams:
    """Which replication strategy drives the nodes, and its knobs.

    ``anti_entropy_period`` (G) paces LocalFirst's digest gossip,
    ``retransmit_period`` (R) paces round retransmission for the
    round-based strategies, and ``deadline`` (D) caps how long a
    HybridDeadline node waits before answering with what it has.
    """

    kind: str
    anti_entropy_period: int = 4
    retransmit_period: int = 2
    deadline: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.anti_entropy_period < 1:
            raise ConfigError("anti-entropy period must be >= 1")
        if self.retransmit_period < 1:
            raise ConfigError("retransmit period must be >= 1")
        if self.deadline < 0:
            raise ConfigError("deadline must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "StrategyParams":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError("strategy must be an object with a 'kind' field")
        kind = d["kind"]
        kwargs = {}
        if "G" in d:
            kwargs["anti_entropy_period"] = int(d["G"])
        if "R" in d:
            kwargs["retransmit_period"] = int(d["R"])
        if "D" in d:
            kwargs["deadline"] = int(d["D"])
        if kind == "HybridDeadline" and "D" not in d:
            raise ConfigError("HybridDeadline requires a deadline 'D'")
        return cls(kind=kind, **kwargs)

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "LocalFirst":
            d["G"] = self.anti_entropy_period
        else:
            d["R"] = self.retransmit_period
        if self.kind == "HybridDeadline":
            d["D"] = self.deadline
        return d

    def uses_anti_entropy(self) -> bool:
        return self.kind == "LocalFirst"


@dataclass(frozen=True)
class ClientOp:
    """One scripted client request."""

    op_id: int
    t: int
    node: int
    kind: str  # "read" | "write"
    key: str
    val: int | None

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ConfigError(f"op kind must be read or write, got {self.kind!r}")
        if self.kind == "write" and not isinstance(self.val, int):
            raise ConfigError(f"write op {self.op_id} needs an integer value")
        if self.t < 0:
            raise ConfigError("op tick must be non-negative")


def generate_workload(
    gen: dict, seed: int, node_count: int, horizon: int
) -> list[dict]:
    """Materialize a small seeded random workload from generator params.

    Off unless the config asks for it; the deterministic RNG keeps the
    resulting scenario reproducible from (gen, seed).
    """
    rng = random.Random(seed)
    count = int(gen.get("ops", 10))
    keys = list(gen.get("keys", ["A"]))
    read_fraction = float(gen.get("read_fraction", 0.5))
    span = gen.get("span", [0, max(horizon - 1, 0)])
    lo, hi = int(span[0]), int(span[1])
    if not keys or count < 0 or lo > hi:
        raise ConfigError("invalid workload generator parameters")
    ops = []
    next_val = 1000
    for _ in range(count):
        t = rng.randint(lo, hi)
        node = rng.randrange(node_count)
        key = rng.choice(keys)
        if rng.random() < read_fraction:
            ops.append({"t": t, "node": node, "kind": "read", "key": key, "val": None})
        else:
            ops.append(
                {"t": t, "node": node, "kind": "write", "key": key, "val": next_val}
            )
            next_val += 1
    return ops


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one deterministic run needs.

    The horizon must lie strictly beyond every scripted request; the
    message latency is at least one tick so causality always moves the
    clock forward.
    """

    node_count: int
    horizon: int
    strategy: StrategyParams
    message_latency: int = 1
    rng_seed: int = 0
    partitions: PartitionSchedule | None = None
    workload: tuple[ClientOp, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigError("node_count must be >= 1")
        if self.message_latency < 1:
            raise ConfigError("message_latency must be >= 1 tick")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.partitions is None:
            object.__setattr__(self, "partitions", PartitionSchedule(self.node_count))
        if self.partitions.node_count != self.node_count:
            raise ConfigError("partition schedule node count mismatch")
        object.__setattr__(self, "workload", tuple(self.workload))
        for op in self.workload:
            if not 0 <= op.node < self.node_count:
                raise ConfigError(f"op {op.op_id} addresses unknown node {op.node}")
            if op.t >= self.horizon:
                raise ConfigError(
                    f"op {op.op_id} at tick {op.t} is not before horizon {self.horizon}"
                )

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        try:
            node_count = int(d["nodes"])
            horizon = int(d["horizon"])
        except KeyError as exc:
            raise ConfigError(f"config missing required field {exc.args[0]!r}") from exc
        latency = int(d.get("latency", 1))
        seed = int(d.get("seed", 0))
        try:
            partitions = PartitionSchedule.from_dicts(
                node_count, d.get("partitions", [])
            )
        except ValueError as exc:
            raise ConfigError(f"bad partition schedule: {exc}") from exc
        strategy = StrategyParams.from_dict(d.get("strategy", {"kind": "LocalFirst"}))
        raw_ops = list(d.get("workload", []))
        if "workload_gen" in d:
            raw_ops += generate_workload(d["workload_gen"], seed, node_count, horizon)
        entries = sorted(enumerate(raw_ops), key=lambda e: (int(e[1]["t"]), e[0]))
        ops = []
        for op_id, (_, raw) in enumerate(entries):
            try:
                ops.append(
                    ClientOp(
                        op_id=op_id,
                        t=int(raw["t"]),
                        node=int(raw["node"]),
                        kind=raw["kind"],
                        key=str(raw["key"]),
                        val=None if raw.get("val") is None else int(raw["val"]),
                    )
                )
            except KeyError as exc:
                raise ConfigError(
                    f"workload entry {op_id} missing field {exc.args[0]!r}"
                ) from exc
        return cls(
            node_count=node_count,
            horizon=horizon,
            strategy=strategy,
            message_latency=latency,
            rng_seed=seed,
            partitions=partitions,
            workload=tuple(ops),
        )

    @classmethod
    def read(cls, path) -> "ScenarioConfig":
        return cls.from_dict(load_json_object(path))

    def to_dict(self) -> dict:
        return {
            "nodes": self.node_count,
            "latency": self.message_latency,
            "horizon": self.horizon,
            "seed": self.rng_seed,
            "partitions": self.partitions.to_dicts(),
            "strategy": self.strategy.to_dict(),
            "workload": [
                {"t": op.t, "node": op.node, "kind": op.kind, "key": op.key, "val": op.val}
                for op in self.workload
            ],
        }
