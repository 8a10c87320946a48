"""Tiny-size smoke test of the benchmark itself (``run.py --selftest``).

Checks that every declared metric comes out by name with its unit, that
span self times are non-negative and children never exceed their
parent, that a trace target that no longer exists is reported as absent
rather than crashing, and that a deliberately wrong pinned hash makes
passes fail.
"""

from __future__ import annotations

import json
import sys

import run
import speed
import tracer as tracing

SCALE = 0.02
SECONDS = 0.2


def _unit_problems(metrics: dict, declared: list[dict]) -> list[str]:
    names = [m["name"] for m in declared]
    problems = [f"undeclared metric {k}" for k in metrics if k not in names]
    shown = run.with_units({k: metrics.get(k) for k in names}, declared)
    for m in declared:
        entry = shown[m["name"]]
        if not isinstance(entry["value"], (int, float)) or entry["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} printed as {entry}")
    return problems


def run_selftest() -> list[str]:
    speed.BLOCK = 1  # the smoke test checks plumbing, not timings
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOADS:
        for traced in (False, True):
            result = run.measure(name, 1, SECONDS, traced, scale=SCALE)
            declared = spec["per_layer"] if traced else spec["end_to_end"]
            where = f"{name} trace={int(traced)}"
            problems += [f"{where}: {p}" for p in _unit_problems(result["metrics"], declared)]
            problems += [f"{where}: {p}" for p in result["span_problems"]]
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} passes failed")
            for key, value in result["metrics"].items():
                if key.endswith("self_s") and value < 0:
                    problems.append(f"{where}: {key} is negative")
            if traced and name == "frontier-sweep":
                problems += [f"{where}: {k} is not zero" for k, v in result["metrics"].items()
                             if k.startswith("trace.") and v != 0]

    tracer = tracing.Tracer()
    tracer.span_targets.append(("capsim.kernel", "NoSuchClass.run"))
    tracer.install()
    tracer.uninstall()
    if tracer.absent != ["capsim.kernel.NoSuchClass.run"]:
        problems.append(f"a missing trace target was reported as {tracer.absent}")

    wrong = run.measure("hot-keys", 1, SECONDS, False, scale=SCALE)["first_outputs"]
    wrong["trace_sha256"] = "0" * 64
    result = run.measure("hot-keys", 1, SECONDS, False, scale=SCALE, pins={"hot-keys": wrong})
    if not result["failed"] / result["attempted"] > 0:
        problems.append("a wrong pinned hash left the error rate at 0")
    return problems


def run_all() -> int:
    problems = run_selftest()
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0
