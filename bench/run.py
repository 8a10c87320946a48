"""capsim's benchmark: whole passes through the CLI, per-layer numbers when traced.

    python3 bench/run.py --workload hot-keys --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --selftest
    python3 bench/run.py --write-pins

Each run is one fresh single-threaded process that imports capsim from
``src/`` and calls ``capsim.cli.main`` in-process, one closed pass after
another (capsim is a batch tool: no arrival rate), for ``--seconds``.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` of a pass,
  ``setup_s`` over fresh interpreter processes that import
  ``capsim.cli`` and load the workload's input, and the process's
  ``peak_rss_mib``. Both times are means over the run, rescaled by the
  mean timing of the speed reference of ``speed.py``, which runs after
  every pass and in every setup process; raw host seconds go to stderr.
* ``--trace 1`` alternates plain passes with passes run under the
  wrappers of ``tracer.py`` and reports the per-layer metrics (medians
  over traced passes) plus ``trace_overhead``, the mean traced pass
  over the mean plain one, minus 1. Spans go to
  ``.bench_out/spans-<workload>-<seed>.jsonl``.

Every pass is checked: at the pinned seed against ``pins.json`` (trace
sha256, stdout of ``tp``/``check``, the frontier CSV, exit codes); on other
seeds the first pass is checked from outside (``verify.py``) and every
later pass must reproduce it byte for byte. A pass that fails counts in
``failed`` (error rate = failed / attempted) and makes the run exit 1.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

PINS = BENCH / "pins.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_PROBES = 7

# Import the entry point and load the input in a fresh interpreter (its own
# start-up is not counted), then time the speed reference in that process.
SETUP_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import capsim.cli
from capsim.config import ScenarioConfig
if sys.argv[3] == "scenario":
    ScenarioConfig.read(sys.argv[2])
else:
    with open(sys.argv[2]) as fh:
        json.load(fh)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[4])
import speed
print(setup, speed.reference_seconds(5))
"""


def call(main, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class ScenarioWorkload:
    """`simulate -o`, then `tp`, then `check --tc --ta --tp --slack`."""

    input_kind = "scenario"

    def __init__(self, name: str, make, tc_margin: int):
        self.name, self.make, self.tc_margin = name, make, tc_margin

    def prepare(self, workdir: Path, seed: int, scale: float) -> None:
        self.data = self.make(seed, scale)
        self.input = workdir / f"{self.name}.json"
        self.input.write_text(json.dumps(self.data))
        self.trace = workdir / f"{self.name}.trace"
        strategy = self.data["strategy"]
        self.slack = 2 * self.data["latency"] + (strategy["G"] if strategy["kind"] == "LocalFirst" else 0)

    def calibrate(self, main) -> None:
        """Learn the run's empirical tc_min and ta; declare tc just under or at tc_min."""
        call(main, ["simulate", str(self.input), "-o", str(self.trace)])
        horizon = str(self.data["horizon"])
        _, out = call(main, ["check", str(self.trace), "--tc", horizon, "--ta", horizon])
        report = json.loads(out)
        self.tc_min = report["empirical_tc_min"]
        self.tc = max(0, self.tc_min - self.tc_margin)
        self.ta = report["empirical_ta"]

    def run_pass(self, main, cli_span) -> dict:
        codes = []
        with cli_span():
            code, _ = call(main, ["simulate", str(self.input), "-o", str(self.trace)])
        codes.append(code)
        with cli_span():
            code, tp_out = call(main, ["tp", str(self.input)])
        codes.append(code)
        with cli_span():
            code, check_out = call(main, [
                "check", str(self.trace), "--tc", str(self.tc), "--ta", str(self.ta),
                "--tp", tp_out.strip(), "--slack", str(self.slack),
            ])
        codes.append(code)
        return {"exit_codes": codes, "tp_stdout": tp_out, "check_stdout": check_out}

    def finish_pass(self, outputs: dict) -> dict:
        outputs["trace_sha256"] = sha256_file(self.trace)
        return outputs

    def verify(self, outputs: dict) -> list[str]:
        problems, kinds, size = verify.trace_invariants(self.trace)
        d = self.data
        tp = verify.partition_span(d["nodes"], d["horizon"], d["partitions"])
        if outputs["tp_stdout"] != f"{tp}\n":
            problems.append(f"tp printed {outputs['tp_stdout']!r}, recomputed {tp}")
        if kinds["invoke"] != len(d["workload"]):
            problems.append(f"{kinds['invoke']} invokes for {len(d['workload'])} ops")
        lines = outputs["check_stdout"].splitlines()
        report = json.loads(lines[0])
        if report["empirical_tc_min"] != self.tc_min:
            problems.append("check's tc_min differs from the calibration run")
        if self.tc < self.tc_min and not any(v["kind"] == "consistency" for v in report["violations"]):
            problems.append(f"--tc {self.tc} under tc_min {self.tc_min} found no stale read")
        failed = bool(report["violations"]) or lines[-1].endswith("holds=false")
        if outputs["exit_codes"] != [0, 0, 1 if failed else 0]:
            problems.append(f"unexpected exit codes {outputs['exit_codes']}")
        writes = [op["key"] for op in d["workload"] if op["kind"] == "write"]
        self.properties = {
            "nodes": d["nodes"],
            "outages": len(d["partitions"]),
            "boundaries": len({p["start"] for p in d["partitions"]} | {p["end"] for p in d["partitions"]}),
            "ops": len(d["workload"]),
            "reads": len(d["workload"]) - len(writes),
            "max_writes_per_key": max((writes.count(k) for k in set(writes)), default=0),
            "records": dict(sorted(kinds.items())),
            "trace_bytes": size,
            "tp": tp,
            "declared_tc": self.tc,
            "declared_ta": self.ta,
        }
        return problems


class FrontierWorkload:
    """`capsim frontier --tp 100 --deadlines 0,5,...,100` on a small base file."""

    name = "frontier-sweep"
    input_kind = "base"

    def prepare(self, workdir: Path, seed: int, scale: float) -> None:
        self.tp = workloads.FRONTIER_TP if scale >= 1 else 10
        self.deadlines = [d for d in workloads.FRONTIER_DEADLINES if d <= self.tp]
        self.input = workdir / "frontier-base.json"
        self.input.write_text(json.dumps(workloads.frontier_base(seed)))

    def calibrate(self, main) -> None:
        """Nothing to learn: the sweep's arguments are fixed."""

    def _argv(self) -> list[str]:
        return ["frontier", str(self.input), "--tp", str(self.tp),
                "--deadlines", ",".join(map(str, self.deadlines))]

    def run_pass(self, main, cli_span) -> dict:
        with cli_span():
            code, csv = call(main, self._argv())
        return {"exit_codes": [code], "csv": csv}

    def finish_pass(self, outputs: dict) -> dict:
        return outputs

    def verify(self, outputs: dict) -> list[str]:
        lines = outputs["csv"].splitlines()
        rows = [line.split(",") for line in lines[1:]]
        labels = ["LocalFirst", *map(str, self.deadlines), "SyncAll"]
        problems = []
        if lines[0] != "D,tc,ta,tp,bound_ok" or [r[0] for r in rows] != labels:
            problems.append("frontier CSV has the wrong header or rows")
        elif any(r[3] != str(self.tp) or r[4] != "true" for r in rows):
            problems.append("a frontier row has the wrong tp or a failed bound")
        if outputs["exit_codes"] != [0]:
            problems.append(f"unexpected exit codes {outputs['exit_codes']}")
        self.properties = {"nodes": 2, "outages": 1, "boundaries": 2, "tp": self.tp,
                           "deadlines": len(self.deadlines), "rows": len(rows)}
        return problems


WORKLOADS = {
    # check dominates: reads x writes per key on 2 hot keys; tc just under tc_min
    "hot-keys": lambda: ScenarioWorkload("hot-keys", workloads.hot_keys, tc_margin=1),
    # per-send BFS over ~200 outages dominates; the checker idles
    "outage-mesh": lambda: ScenarioWorkload("outage-mesh", workloads.outage_mesh, tc_margin=0),
    # per-event kernel and strategy cost over ~125k sends; no serialization
    "frontier-sweep": FrontierWorkload,
}


def setup_seconds(workload, probes: int) -> float:
    """Import the entry point and load the input, each time in a fresh process.

    Returns the mean setup, rescaled by the mean speed reference timed
    in those processes.
    """
    setups, refs = [], []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(workload.input),
             workload.input_kind, str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup, ref = map(float, done.stdout.split())
        setups.append(setup)
        refs.append(ref)
    return speed.rescale(setups, refs)


def measure(name: str, seed: int, seconds: float, traced: bool, *,
            scale: float = 1.0, pins: dict | None = None,
            spans_out: Path | None = None) -> dict:
    """One benchmark run; returns the result object (see the module docstring)."""
    from capsim.cli import main

    workload = WORKLOADS[name]()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload.prepare(workdir, seed, scale)
        setup_s = None if traced else setup_seconds(workload, SETUP_PROBES)
        workload.calibrate(main)  # also warms caches before anything is timed

        tracer = tracing.Tracer()
        plain_cli = contextlib.nullcontext

        def traced_cli():
            return tracer.span(tracing.CLI_SPAN)

        first, problems = None, []
        walls, traced_walls, layers = [], [], []
        refs = [speed.reference_seconds()]
        attempted = failed = 0
        start = time.perf_counter()
        while attempted < MIN_PASSES * (2 if traced else 1) or time.perf_counter() - start < seconds:
            under_trace = traced and attempted % 2 == 1
            gc.collect()
            if under_trace:
                tracer.begin_pass(attempted)
                tracer.install()
            t0 = time.perf_counter()
            try:
                outputs = workload.run_pass(main, traced_cli if under_trace else plain_cli)
            except Exception as exc:  # a traceback is a failed pass, not a crashed run
                outputs = {"error": f"{type(exc).__name__}: {exc}"}
            wall = time.perf_counter() - t0
            refs.append(speed.reference_seconds())
            if under_trace:
                tracer.uninstall()
                traced_walls.append(wall)
                layers.append(tracing.layer_metrics(tracer))
            else:
                walls.append(wall)
            attempted += 1
            if "error" not in outputs:
                outputs = workload.finish_pass(outputs)
            if first is None:
                first = outputs
                problems = _check_first(workload, outputs, pins)
                if problems:
                    print(f"{name} seed {seed}: " + "; ".join(problems[:10]), file=sys.stderr)
            if problems or outputs != first:
                failed += 1

        print(f"{name} seed {seed} host seconds per pass: {' '.join(f'{w:.4f}' for w in walls)}; "
              f"per speed reference: {' '.join(f'{r:.4f}' for r in refs)}", file=sys.stderr)
        properties = getattr(workload, "properties", {})
        if traced:
            properties.setdefault("records", {k[4:]: v for k, v in tracer.counts.items() if k.startswith("rec.")})
        print(json.dumps({"workload": name, "seed": seed, "properties": properties}))
        if traced:
            metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
            metrics["trace_overhead"] = statistics.fmean(traced_walls) / statistics.fmean(walls) - 1
            if tracer.absent:
                print(f"absent trace targets: {', '.join(tracer.absent)}", file=sys.stderr)
            if spans_out is not None:
                spans_out.parent.mkdir(exist_ok=True)
                with open(spans_out, "w") as fh:
                    for s in tracer.spans:
                        fh.write(json.dumps(s.to_dict()) + "\n")
            span_issues = tracing.span_problems(tracer.spans)
        else:
            metrics = {
                "wall_s": speed.rescale(walls, refs),
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            span_issues = []
        return {"correct": failed == 0 and not span_issues, "attempted": attempted, "failed": failed,
                "metrics": metrics, "first_outputs": first, "span_problems": span_issues}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check_first(workload, outputs: dict, pins: dict | None) -> list[str]:
    if "error" in outputs:
        return [outputs["error"]]
    problems = workload.verify(outputs)
    if pins is not None:
        expected = pins.get(workload.name)
        if outputs != expected:
            diff = sorted(k for k in outputs if expected is None or outputs[k] != expected.get(k))
            problems.append(f"differs from the pinned expectation in {', '.join(diff)}")
    return problems


def load_pins(seed: int) -> dict | None:
    pins = json.loads(PINS.read_text())
    return pins["workloads"] if seed == pins["seed"] else None


def with_units(metrics: dict[str, float], declared: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="tiny-size smoke test of the benchmark itself")
    parser.add_argument("--write-pins", action="store_true", help=f"rewrite {PINS.name} at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not (SRC / "capsim" / "cli.py").is_file():
        print(f"error: no capsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        import selftest
        return selftest.run_all()
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        pins=load_pins(args.seed),
        spans_out=ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl",
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": with_units(result["metrics"], declared),
    }))
    return 0 if result["correct"] else 1


def write_pins() -> int:
    pins = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        result = measure(name, DEFAULT_SEED, 0, False)
        if not result["correct"]:
            print(f"{name}: outputs fail the outside checks; pins not written", file=sys.stderr)
            return 1
        pins["workloads"][name] = result["first_outputs"]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
