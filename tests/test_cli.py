import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capsim
from capsim.cli import build_parser, main
from capsim.config import ConfigError, ScenarioConfig
from capsim.kernel import Simulation
from capsim.partitions import PartitionSchedule
from capsim.strategies import LocalFirstNode
from capsim.trace import scan_operations


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def demo_config(**overrides):
    base = {
        "nodes": 2,
        "latency": 1,
        "horizon": 30,
        "seed": 0,
        "partitions": [{"a": 0, "b": 1, "start": 10, "end": 20}],
        "strategy": {"kind": "LocalFirst", "G": 4},
        "workload": [
            {"t": 2, "node": 0, "kind": "write", "key": "A", "val": 1},
            {"t": 5, "node": 1, "kind": "read", "key": "A", "val": None},
        ],
    }
    base.update(overrides)
    return base


def test_simulate_writes_a_deterministic_trace(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", cfg, "-o", str(out1)]) == 0
    assert main(["simulate", cfg, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_prints_to_stdout(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    assert main(["simulate", cfg]) == 0
    out = capsys.readouterr().out
    assert '"ev": "invoke"' in out


@pytest.mark.parametrize("strategy", [
    {"kind": "LocalFirst", "G": 3}, {"kind": "SyncAll", "R": 2}, {"kind": "HybridDeadline", "D": 4},
])
def test_simulate_runs_without_a_history_and_records_every_line(tmp_path, monkeypatch, strategy):
    # node 2 is cut off from tick 90 past the horizon, so round-based ops go unanswered
    cut = [{"a": 2, "b": other, "start": 90, "end": 200} for other in (0, 1)]
    config = {"nodes": 3, "horizon": 120, "strategy": strategy,
              "partitions": [{"a": 0, "b": 1, "start": 10, "end": 40}, *cut],
              "workload_gen": {"ops": 40, "keys": ["A", "B"]}}
    path, out = write_json(tmp_path / "cfg.json", config), tmp_path / "t.jsonl"
    runs, run = [], Simulation.run

    def kept_run(self, **kwargs):
        runs.append(run(self, **kwargs))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(Simulation, "run", kept_run)
        assert main(["simulate", path, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    # the records of simulate's run are the lines it writes, and the
    # operations of a history run are the ones a reader finds in them
    (simulated,) = runs
    assert simulated.operations is None
    assert simulated.records == [json.loads(line) for line in text.splitlines()]
    history_run = Simulation(ScenarioConfig.read(path)).run()
    assert history_run.to_jsonl() == text
    assert history_run.operations == list(scan_operations(text))
    assert {ev for ev, _ in history_run.operations} >= {"invoke", "respond"}
    assert ("unanswered" in text) == (strategy["kind"] != "LocalFirst")


def test_check_clean_trace_exits_zero(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    trace = tmp_path / "t.jsonl"
    main(["simulate", cfg, "-o", str(trace)])
    assert main(["check", str(trace), "--tc", "8", "--ta", "4"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["violations"] == []


def test_check_flags_violations_with_exit_one(tmp_path, capsys):
    config = demo_config(
        workload=[
            {"t": 2, "node": 0, "kind": "write", "key": "A", "val": 1},
            {"t": 12, "node": 0, "kind": "write", "key": "A", "val": 2},
            {"t": 15, "node": 1, "kind": "read", "key": "A", "val": None},
        ]
    )
    cfg = write_json(tmp_path / "cfg.json", config)
    trace = tmp_path / "t.jsonl"
    main(["simulate", cfg, "-o", str(trace)])
    assert main(["check", str(trace), "--tc", "0", "--ta", "0"]) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert any(v["kind"] == "consistency" for v in report["violations"])


def test_check_reports_the_bound_verdict(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    trace = tmp_path / "t.jsonl"
    main(["simulate", cfg, "-o", str(trace)])
    code = main(
        ["check", str(trace), "--tc", "8", "--ta", "4", "--tp", "0", "--slack", "2"]
    )
    assert code == 0
    assert "bound tp=0 slack=2 holds=true" in capsys.readouterr().out


def test_prove_expects_a_violation(tmp_path, capsys):
    spec = {
        "strategy": {"kind": "LocalFirst", "G": 4},
        "tp": 20,
        "claimed_tc": 5,
        "claimed_ta": 5,
    }
    path = write_json(tmp_path / "spec.json", spec)
    assert main(["prove", path]) == 0
    out = capsys.readouterr().out
    assert "theorem: violation found" in out


def test_prove_exits_one_when_its_replay_finds_no_violation(tmp_path, capsys, monkeypatch):
    from capsim import harness
    from capsim.checker import CheckReport

    monkeypatch.setattr(harness, "proof_replay", lambda spec: CheckReport(3, 2, []))
    spec = {"strategy": {"kind": "SyncAll", "R": 2}, "tp": 20, "claimed_tc": 5, "claimed_ta": 5}
    assert main(["prove", write_json(tmp_path / "spec.json", spec)]) == 1
    assert capsys.readouterr() == (
        '{"empirical_ta": 3, "empirical_tc_min": 2, "violations": []}\n'
        "theorem: no violation found (unexpected)\n", "")


def test_prove_rejects_a_claim_covering_the_span(tmp_path, capsys):
    spec = {
        "strategy": {"kind": "LocalFirst", "G": 4},
        "tp": 10,
        "claimed_tc": 6,
        "claimed_ta": 5,
    }
    path = write_json(tmp_path / "spec.json", spec)
    assert main(["prove", path]) == 2


def test_frontier_emits_csv(tmp_path, capsys):
    cfg = write_json(tmp_path / "base.json", {"latency": 1, "seed": 0, "G": 2})
    assert main(["frontier", cfg, "--tp", "10", "--deadlines", "0,4,8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "D,tc,ta,tp,bound_ok"
    assert len(lines) == 6


def test_frontier_writes_a_file(tmp_path):
    cfg = write_json(tmp_path / "base.json", {})
    out = tmp_path / "rows.csv"
    assert main(["frontier", cfg, "--tp", "10", "--deadlines", "0,4", "-o", str(out)]) == 0
    assert out.read_text().startswith("D,tc,ta,tp,bound_ok\n")
    assert out.read_bytes().endswith(b"\n")


def test_tp_prints_the_span(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    assert main(["tp", cfg]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_tp_checks_every_op_and_builds_none(tmp_path, capsys, monkeypatch):
    def built(config):
        raise AssertionError("tp read the ops")

    monkeypatch.setattr(ScenarioConfig, "workload", property(built))
    cfg = write_json(tmp_path / "cfg.json", demo_config(workload_gen={"ops": 1000, "keys": ["A", "B"]}))
    assert main(["tp", cfg]) == 0
    assert capsys.readouterr().out == "10\n"
    ops = demo_config()["workload"] + [{"t": 7, "node": 0, "kind": "write", "key": "A"}]
    cfg = write_json(tmp_path / "bad.json", demo_config(workload=ops, workload_gen={"ops": 3}))
    assert main(["tp", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: config.workload[2].val must be an integer for a write, got null\n"
    )


def test_main_builds_its_parser_once_and_each_call_prints_what_a_fresh_process_does(tmp_path, capsys):
    src = str(Path(capsim.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import capsim.cli as c; print(c.build_parser.cache_info().currsize)"
    built_at_import = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert built_at_import == "0\n"
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    trace = str(tmp_path / "demo.trace")
    calls = [
        ["simulate", cfg, "-o", trace], ["tp", cfg], ["check", trace, "--tc", "2", "--ta", "2"],
        ["frontier", "--nope"], ["check", trace, "--tc", "9", "--ta", "9", "--tp", "10"], ["tp", cfg],
    ]
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "capsim", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        fresh.append((done.returncode, done.stdout, done.stderr))
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, *capsys.readouterr()))
    assert in_process == fresh
    assert build_parser() is build_parser()


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["frontier", "--nope"]) == 2
    assert main(["simulate", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad)]) == 2


def test_bad_scenario_config_exits_two(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", demo_config(nodes=0))
    assert main(["simulate", cfg]) == 2


def test_check_accepts_raw_line_separators_inside_strings(tmp_path, capsys):
    # JSON allows U+2028, U+2029 and NEL raw inside a string; only LF ends a line
    key = "a\u2028b\u2029c\x85d"
    lines = [
        {"t": 1, "seq": 0, "ev": "invoke", "op": 0, "node": 0, "kind": "write",
         "key": key, "val": 1},
        {"t": 1, "seq": 1, "ev": "respond", "op": 0, "val": None},
        {"t": 2, "seq": 2, "ev": "invoke", "op": 1, "node": 0, "kind": "read",
         "key": key, "val": None},
        {"t": 2, "seq": 3, "ev": "respond", "op": 1, "val": 1},
    ]
    trace = tmp_path / "raw.jsonl"
    trace.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in lines), encoding="utf-8"
    )
    assert main(["check", str(trace), "--tc", "0", "--ta", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["violations"] == []


def test_one_loader_words_a_non_object_config_the_same_on_every_route(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    message = f"{path} must contain a JSON object"
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.read(path)
    assert str(info.value) == message
    for command in ("simulate", "tp", "frontier --tp 4 --deadlines 1", "prove"):
        name, *flags = command.split()
        assert main([name, str(path), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


COMMANDS = {
    "simulate": [],
    "tp": [],
    "prove": [],
    "frontier": ["--tp", "4", "--deadlines", "1"],
    "check": ["--tc", "0", "--ta", "0"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
])
def test_an_unreadable_input_path_is_one_config_error_line(tmp_path, capsys, command, kind, reason):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    assert main([command, str(path), *COMMANDS[command]]) == 2
    assert capsys.readouterr().err == f"config error: cannot read {path}: {reason}\n"


@pytest.mark.parametrize("flag", ["--tc", "--ta", "--tp", "--slack"])
def test_check_refuses_a_negative_number_flag_before_reading_the_trace(tmp_path, capsys, flag):
    flags = {"--tc": "0", "--ta": "0", flag: "-5"}
    # the trace does not exist: the flag is refused before any read
    args = ["check", str(tmp_path / "missing.jsonl")]
    for name, value in flags.items():
        args += [name, value]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {flag} must be >= 0, got -5\n"
    assert captured.out == ""


def test_check_splits_trace_lines_on_lf_only(tmp_path, capsys):
    # CR is JSON whitespace inside a line, so it neither ends one nor breaks it
    invoke = (
        '{"t": 2, "seq": 0, "ev": "invoke", "op": 0, "node": 0,\r '
        '"kind": "read", "key": "A", "val": null}'
    )
    respond = '{"t": 2, "seq": 1, "ev": "respond", "op": 0, "val": null}'
    trace = tmp_path / "cr.jsonl"
    trace.write_bytes(f"{invoke}\n{respond}\n".encode())
    assert main(["check", str(trace), "--tc", "0", "--ta", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["violations"] == []
    # CR-only endings leave one line of two objects, as the reference reader reads it
    trace.write_bytes(f"{respond}\r{respond}\r".encode())
    assert main(["check", str(trace), "--tc", "0", "--ta", "0"]) == 2
    assert capsys.readouterr().err == "trace error: line 1: invalid JSON: Extra data\n"


TP_LAYERS = {"capsim", "capsim.cli", "capsim.config", "capsim.errors", "capsim.partitions"}
ALL_LAYERS = TP_LAYERS | {"capsim.kernel", "capsim.strategies", "capsim.trace", "capsim.checker",
                          "capsim.harness"}
# command -> the capsim modules a fresh process holds after running it; None: the bare import
COMMAND_LAYERS = {
    None: TP_LAYERS,
    "tp": TP_LAYERS,
    "simulate": TP_LAYERS | {"capsim.kernel", "capsim.strategies", "capsim.trace"},
    "check": TP_LAYERS | {"capsim.trace", "capsim.checker"},
    "prove": ALL_LAYERS,
    "frontier": ALL_LAYERS,
}
# import capsim.cli, run the command named in argv (if any) and print the modules it added
LAYER_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import capsim.cli
code = capsim.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


@pytest.mark.parametrize("command", list(COMMAND_LAYERS), ids=lambda c: c or "import")
def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing(tmp_path, command):
    # every command runs in a fresh process and pays its imports once, so each
    # loads only the layers it runs; the modules are compared before and after,
    # so one a site hook preloads does not count
    cfg = write_json(tmp_path / "cfg.json", demo_config())
    trace = tmp_path / "run.jsonl"
    assert main(["simulate", cfg, "-o", str(trace)]) == 0
    spec = write_json(tmp_path / "spec.json", {"strategy": {"kind": "LocalFirst", "G": 4},
                                               "tp": 20, "claimed_tc": 5, "claimed_ta": 5})
    argv = {
        None: [],
        "tp": ["tp", cfg],
        "simulate": ["simulate", cfg, "-o", str(tmp_path / "again.jsonl")],
        "check": ["check", str(trace), "--tc", "30", "--ta", "30"],
        "prove": ["prove", spec],
        "frontier": ["frontier", write_json(tmp_path / "base.json", {}), "--tp", "10",
                     "--deadlines", "0,4", "-o", str(tmp_path / "rows.csv")],
    }[command]
    src = str(Path(capsim.__file__).resolve().parents[1])
    code, *added = subprocess.run(
        [sys.executable, "-c", LAYER_PROBE, src, *argv], capture_output=True, text=True, check=True
    ).stderr.split()
    assert code == "0"
    assert {name for name in added if name.split(".")[0] == "capsim"} == COMMAND_LAYERS[command]
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} & set(added)


def test_each_error_class_is_the_one_in_errors():
    from capsim import checker, config, errors, kernel, trace

    assert config.ConfigError is errors.ConfigError
    assert trace.TraceParseError is errors.TraceParseError
    assert checker.HistoryIntegrityError is errors.HistoryIntegrityError
    assert kernel.SimulationError is errors.SimulationError


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command, target", [
    ("simulate", (LocalFirstNode, "on_invoke")),  # inside a strategy handler, under the kernel
    ("tp", (PartitionSchedule, "max_partition_span")),  # outside any handler
])
def test_running_out_of_memory_is_one_line_and_exit_two(tmp_path, capsys, monkeypatch, command, target):
    monkeypatch.setattr(*target, _out_of_memory)
    assert main([command, write_json(tmp_path / "cfg.json", demo_config())]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_a_failing_strategy_handler_is_one_simulation_error_line_and_exit_one(tmp_path, capsys, monkeypatch):
    def boom(self, op, now):
        raise RuntimeError("boom")

    monkeypatch.setattr(LocalFirstNode, "on_invoke", boom)
    assert main(["simulate", write_json(tmp_path / "cfg.json", demo_config())]) == 1
    assert capsys.readouterr() == (
        "", "simulation error: strategy failed while handling invoke of op 0 at tick 2: boom\n")


def test_a_reader_that_leaves_early_ends_simulate_with_exit_two_and_no_traceback(tmp_path):
    # about 0.4 MB of trace, far past what a pipe holds, so the writer meets the closed end
    config = {"nodes": 3, "horizon": 4000, "strategy": {"kind": "LocalFirst", "G": 8},
              "workload_gen": {"ops": 4000, "keys": ["A", "B"]}}
    src = str(Path(capsim.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "capsim", "simulate", write_json(tmp_path / "big.json", config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(child.stdout.readline())["seq"] == 0
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (2, b"")
