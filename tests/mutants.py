"""A mutation gate for capsim's fast paths: each listed mutant must fail the tests named for it.

Run it from anywhere, ``python tests/mutants.py``, or name mutants to run
only those: ``python tests/mutants.py "outage node check"``. It is a
script, not a test module.

Each mutant is one textual change to a file of ``src/capsim``. It is
applied alone, to a copy of ``src/``, ``tests/`` and ``README.md`` in a
temporary directory, never to the working tree. Then its tests run there
with ``pytest -x`` under the derandomized ``ci`` hypothesis profile, so a
verdict is the same on every run. A mutant is killed when a test fails
and survives when all pass. First the tests of every selected mutant run
once on an unchanged copy, since a kill means nothing if the test fails
anyway.

It prints one line per mutant and exits 1 when a mutant survives that
``ALLOWED`` does not list, or when a mutant's text is not found exactly
once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

REFUSED_IN_CODE = "tests/test_inputs.py::test_a_config_built_in_code_is_refused_as_its_json_is"
LAYERS_LOADED = "tests/test_cli.py::test_importing_the_cli_loads_no_dataclasses_inspect_or_typing"
LISTED_ITEMS = "tests/test_inputs.py::test_listed_items_read_as_the_object_reader_reads_each"
SEVERAL_FAULTS = "tests/test_inputs.py::test_a_config_with_several_faults_names_the_first"
PROBE_PIN = "tests/test_strategies.py::TestDeadlineProbe::test_probes_batch_retransmits_per_peer_and_name_their_timers_with_strings"
TIMER_AT_LATENCY = ("tests/test_strategies.py::TestDeadlineProbe::"
                    "test_a_timer_at_the_latency_sees_a_delivery_of_its_invoke_tick_as_its_own_run_does")
PROBED_HISTORIES = "tests/test_harness.py::test_probed_histories_equal_one_run_per_deadline"
PROBES_AS_HYBRID = "tests/test_strategies.py::TestDeadlineProbe::test_probes_answer_as_each_hybrid_deadline_run_does"
ANSWERS_ONLY_READ = ("tests/test_strategies.py::TestDeadlineProbe::"
                     "test_answers_reads_the_notes_so_a_second_call_gives_what_the_first_did")
GOLDEN = "tests/test_kernel.py::test_golden_trace_and_frontier_digests"
CHECK_PINS = "tests/test_cli.py::test_check_gives_its_pinned_verdict"
LOGGED_LAST_TICK = ("tests/test_strategies.py::TestDeadlineProbe::"
                    "test_a_reply_logged_the_tick_before_its_round_completes_is_the_answer_there")

# the deadline probe's timers for 0 < D <= latency, each set at invoke -> one
# timer per op, armed at invoke for the least such D and re-armed at each
# firing for the next
REARMED = (
    """        self.deadlines = tuple(d for d in sorted(set(deadlines)) if 0 < d < self.first_logged)

    def _deadline_passed(self, rnd: _Probe, now: int) -> list[Action]:
        \"\"\"Note the answer at deadline now - invoke, as a new piece if its value changed.\"\"\"
        if (value := self._respond_value(rnd)) != rnd.pieces[-1][1]:
            rnd.pieces.append((now - rnd.invoke_tick, value))
        return []
""",
    """        self.timed = [d for d in sorted(set(deadlines)) if 0 < d < self.first_logged]
        self.deadlines = tuple(self.timed[:1])

    def _deadline_passed(self, rnd: _Probe, now: int) -> list[Action]:
        if (value := self._respond_value(rnd)) != rnd.pieces[-1][1]:
            rnd.pieces.append((now - rnd.invoke_tick, value))
        d = now - rnd.invoke_tick
        return [SetTimer(e - d, f"{self.DEADLINE_PREFIX}{rnd.op_id}") for e in self.timed if e > d][:1]
""",
)

# (name, file in src/capsim, old text, new text, the tests that should kill it)
MUTANTS = [
    ("op type scan without type(t) is int", "config.py",
     "if not (type(t) is type(node) is int and t >= 0", "if not (type(node) is int and t >= 0",
     [REFUSED_IN_CODE]),
    ("outage type scan without start >= 0", "config.py",
     "is type(end) is int and start >= 0):", "is type(end) is int):",
     [REFUSED_IN_CODE]),
    ("no outage start range in OUTAGE_FIELDS", "config.py",
     '(key, INT, REQUIRED, (0, None) if key == "start" else None)', "(key, INT, REQUIRED, None)",
     [REFUSED_IN_CODE]),
    ("outage node check < -> <=", "config.py",
     "if not 0 <= node < node_count:\n                    raise ConfigError(f\"config.partitions[",
     "if not 0 <= node <= node_count:\n                    raise ConfigError(f\"config.partitions[",
     [REFUSED_IN_CODE]),
    ("type faults named in op-id order", "config.py",
     "for i, (t, node, kind, key, val) in enumerate(workload):",
     "for i, (t, node, kind, key, val) in sorted(enumerate(workload), key=lambda item: item[1][0]):",
     [REFUSED_IN_CODE]),
    ("cli imports the kernel at the top", "cli.py",
     "from .errors import ConfigError, HistoryIntegrityError, SimulationError, TraceParseError\n",
     "from .errors import ConfigError, HistoryIntegrityError, SimulationError, TraceParseError\n"
     "from .kernel import Simulation\n",
     [LAYERS_LOADED]),
    ("check imports the harness", "cli.py",
     "    from .checker import bound_holds, check, extract_history\n",
     "    from .checker import bound_holds, check, extract_history\n    from .harness import frontier_sweep\n",
     [LAYERS_LOADED]),
    ("latency range >= 1 -> >= 0", "config.py",
     '"latency": ("message_latency", INT, OPTIONAL, (1, None)),',
     '"latency": ("message_latency", INT, OPTIONAL, (0, None)),',
     [REFUSED_IN_CODE]),
    ("no refusal of an item that does not unpack", "config.py",
     "except (TypeError, ValueError) as exc:  # an item that does not unpack",
     "except () as exc:  # an item that does not unpack",
     [REFUSED_IN_CODE]),
    ("conversion refuses an op without val", "config.py",
     '(*_OP_VALUES(op), op.get("val"))', '(*_OP_VALUES(op), op["val"])',
     [LISTED_ITEMS]),
    ("ops that are no list accepted", "config.py",
     "if type(workload) not in (list, tuple):", "if False:",
     [REFUSED_IN_CODE]),
    ("presence fault named before an earlier type fault", "config.py",
     'except (KeyError, TypeError, ConfigError):\n            fields = read_json(d, CONFIG_FIELDS, "config")',
     'except (KeyError, TypeError, ConfigError) as exc:\n            raise ConfigError(f"config: missing required field {exc}")',
     [SEVERAL_FAULTS]),
    ("read_staleness max(0, anchor - after + 1) -> max(0, anchor - after)", "checker.py",
     "return max(0, anchor - after + 1)", "return max(0, anchor - after)",
     ["tests/test_checker.py::TestMinConsistencyBound", CHECK_PINS]),
    ("horizon settlement over buckets unsorted", "kernel.py",
     "for tick in sorted(buckets):", "for tick in buckets:",
     ["tests/test_kernel.py::test_horizon_drops_settle_by_due_tick_then_queue_order"]),
    ("extract_history response_tick < invoke_tick -> < invoke_tick - 1", "checker.py",
     "if values[0] < record.invoke_tick:", "if values[0] < record.invoke_tick - 1:",
     ["tests/test_inputs.py::test_bad_input_exits_two_with_one_line"]),
    ("RegisterMap.merge >= -> >", "strategies.py",
     "if current is not None and current[1] >= version:", "if current is not None and current[1] > version:",
     ["tests/test_strategies.py", "tests/test_kernel.py"]),
    ("rep ver > rnd.best_ver -> >=", "strategies.py",
     "ver > rnd.best_ver):", "ver >= rnd.best_ver):",
     ["tests/test_strategies.py", "tests/test_kernel.py"]),
    ("probe logs read as of the end of tick t + D", "strategies.py",
     "edge = probe.invoke_tick - 1  #", "edge = probe.invoke_tick  #",
     [PROBED_HISTORIES]),
    ("probe treats a round completing at tick t + D as done", "strategies.py",
     "else probe.done) - probe.invoke_tick", "else probe.done - 1) - probe.invoke_tick",
     [PROBE_PIN]),
    ("probe log window leaves out its last tick", "strategies.py",
     "for s in probe.ticks if lo < s <= hi)", "for s in probe.ticks if lo < s < hi)",
     [LOGGED_LAST_TICK]),
    ("probe timers only for D < latency", "strategies.py",
     "self.first_logged = latency + 1", "self.first_logged = latency",
     [TIMER_AT_LATENCY]),
    ("probe arms one timer per op and re-arms it for the next D <= latency", "strategies.py",
     *REARMED, [TIMER_AT_LATENCY]),
    ("answers() writes its logged pieces into the round's notes", "strategies.py",
     "            out[op_id] = last, probe.pieces + logged\n",
     "            probe.pieces += logged\n            out[op_id] = last, probe.pieces\n",
     [ANSWERS_ONLY_READ]),
    ("SyncAll given a deadline", "strategies.py",
     'self.deadlines = (params.deadline,) if params.kind == "HybridDeadline" else ()',
     "self.deadlines = (params.deadline,)",
     [GOLDEN]),
    ("D = 0 answered by a one-tick timer", "strategies.py",
     "actions += self._deadline_passed(rnd, now) if d == 0 else [", "actions += [",
     [GOLDEN]),
    ("a deadline answer leaves responded unset, so the round's completion answers again", "strategies.py",
     '"""Answer an open round with what has arrived."""\n        rnd.responded = True\n',
     '"""Answer an open round with what has arrived."""\n',
     [GOLDEN]),
    ("probe batch holds its rounds in reverse order", "strategies.py",
     '"msgs": list(owed.values())}', '"msgs": list(owed.values())[::-1]}',
     [PROBE_PIN]),
    ("probe batch sent only to the lowest peer", "strategies.py",
     "for peer, owed in self._owed.items() if owed]", "for peer, owed in self._owed.items() if owed][:1]",
     [PROBES_AS_HYBRID]),
    ("probe batch leaves out the oldest round", "strategies.py",
     '"msgs": list(owed.values())}', '"msgs": list(owed.values())[1:]}',
     [PROBE_PIN]),
]

# name -> why the mutant cannot change what the program gives
ALLOWED = {
    "RegisterMap.merge >= -> >": "an equal version is the same write with the same value, "
                                 "and no caller reads merge's result",
    "rep ver > rnd.best_ver -> >=": "an equal version is the same write, so best_val keeps its value",
}


def pytest(tmp: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` in the copy at ``tmp``: 0 all passed, 1 some failed."""
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci", *tests],
        cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def copy_of_repo(tmp: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "README.md", tmp)


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or any(n in m[0] for n in names)]
    faults = 0
    with tempfile.TemporaryDirectory(prefix="capsim-mutants-") as root:
        clean = Path(root) / "clean"
        copy_of_repo(clean)
        tests = sorted({test for *_, kill in mutants for test in kill})
        if pytest(clean, tests):
            print("the unchanged code fails the mutants' tests; no verdict", file=sys.stderr)
            return 1
        for name, file, old, new, kill in mutants:
            tmp = Path(root) / "mutant"
            shutil.rmtree(tmp, ignore_errors=True)
            copy_of_repo(tmp)
            path = tmp / "src" / "capsim" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"error     {name}: its text occurs {text.count(old)} times in {file}")
                faults += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code = pytest(tmp, kill)
            if code == 1:
                print(f"killed    {name}")
            elif code == 0 and name in ALLOWED:
                print(f"survived  {name} (allowed: {ALLOWED[name]})")
            else:
                print(f"survived  {name}" if code == 0 else f"error     {name}: pytest exited {code}")
                faults += 1
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
