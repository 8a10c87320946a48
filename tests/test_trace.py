import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsim
import capsim.cli as cli_module
import capsim.config as config_module
import capsim.trace as trace_module
from capsim.checker import HistoryIntegrityError, extract_history
from capsim.cli import main
from capsim.config import ConfigError, ScenarioConfig
from capsim.kernel import run_scenario
from capsim.trace import OPERATIONS, RECORD_FIELDS, Trace, TraceParseError, scan_operations

TIMER = '{"t": 1, "seq": 0, "ev": "timer", "node": 0, "timer": "x"}'
SEND = '{"t": 2, "seq": 1, "ev": "send", "src": 0, "dst": 1, "msg": 0}'


# (trace text, None if every line parses, else the parse error's text)
READER_CASES = {
    "reordered keys": ('{"timer": "x", "ev": "timer", "node": 0, "seq": 0, "t": 1}\n', None),
    "extra spaces": (' \t{ "t" :1 ,"seq":0,  "ev" : "send" }  \n', None),
    "crlf endings": (f"{TIMER}\r\n{SEND}\r\n", None),
    "blank lines": (f"\n \n{TIMER}\n\n\t\n{SEND}\n\n", None),
    "no final newline": (f"{TIMER}\n{SEND}", None),
    "raw line separators in a string": (
        '{"t": 1, "seq": 0, "ev": "timer", "node": 0, "timer": "a\u2028b\u2029c\x85d"}\n',
        None,
    ),
    "trailing text": (f"{TIMER}\n{SEND} x\n", "line 2: invalid JSON: Extra data"),
    "non-JSON space after the object": (
        f"{TIMER}\u00a0\n", "line 1: invalid JSON: Extra data"
    ),
    "two objects on one line": (f"{TIMER}{SEND}\n", "line 1: invalid JSON: Extra data"),
    "array": (f"{TIMER}\n\n[1]\n", "line 3: record is not an object"),
    "broken object": (
        f"{TIMER}\n{{broken\n",
        "line 2: invalid JSON: Expecting property name enclosed in double quotes",
    ),
    "missing seq": ('{"t": 1, "ev": "timer"}\n', "line 1: missing field 'seq'"),
    "byte-order mark": (
        "\ufeff" + TIMER + "\n",
        "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
    ),
}


@pytest.mark.parametrize("text, error", READER_CASES.values(), ids=READER_CASES.keys())
def test_reader_accepts_exactly_what_json_loads_accepts(text, error):
    lines = [line for line in text.split("\n") if line.strip(" \t\r\n")]
    if error is None:
        assert Trace.from_jsonl(text).records == [json.loads(line) for line in lines]
        return
    with pytest.raises(TraceParseError) as info:
        Trace.from_jsonl(text)
    assert str(info.value) == error
    bad = text.split("\n")[info.value.line_no - 1]
    if "invalid JSON" in error:
        with pytest.raises(json.JSONDecodeError) as loads_info:
            json.loads(bad)
        assert error.endswith(loads_info.value.msg)
    else:
        json.loads(bad)  # valid JSON, rejected as a record


# ---- check's reader: canonical lines matched, every other line decoded ----

INVOKE = (
    '{"t": 2, "seq": 0, "ev": "invoke", "op": OP, "node": 0, '
    '"kind": "write", "key": KEY, "val": 5}\n'
)


def invoke(op="0", key='"A"'):
    return INVOKE.replace("OP", op).replace("KEY", key)


def outcome(read):
    """The History a reader builds, or the class and text of what it raises."""
    try:
        return read()
    except (TraceParseError, HistoryIntegrityError) as exc:
        return type(exc), str(exc)


# (trace text, how scan_operations takes its last line: "matched",
# "decoded", or None when reading fails or no operation is left)
BORDER_CASES = {
    "negative zero": (invoke("-0"), "decoded"),  # an id slot takes no sign
    "negative written value": (invoke().replace('"val": 5', '"val": -5'), "matched"),
    "leading zero": (invoke("01"), None),
    "18 digits": (invoke("9" * 18), "matched"),
    "19 digits": (invoke("9" * 19), "decoded"),
    "4301 digits": (invoke("9" * 4301), None),
    "float op": (invoke("1.0"), None),
    "boolean op": (invoke("true"), None),
    "escaped quote in a key": (invoke(key=r'"a\"b"'), "decoded"),
    "raw non-ASCII key": (invoke(key='"é"'), "decoded"),
    "escaped non-ASCII key": (invoke(key='"\\u00e9"'), "decoded"),
    "trailing spaces": (invoke().replace("}\n", "}  \n"), "decoded"),
    "crlf": (invoke().replace("\n", "\r\n"), "matched"),
    "cr cr lf": (invoke().replace("\n", "\r\r\n"), "decoded"),
    "no final newline": (invoke().rstrip("\n"), "decoded"),
    "crlf without a final newline": (
        TIMER + "\r\n" + invoke().replace("\n", "\r"), "decoded"
    ),
    "extra field": (invoke().replace("}\n", ', "x": 1}\n'), "decoded"),
    "duplicated key": (invoke().replace('"val": 5', '"val": 5, "val": 6'), "decoded"),
    "send from a string src": ('{"t": 1, "seq": 1, "ev": "send", "src": "x", "dst": 1, "msg": 0}\n', None),
    "unknown ev": ('{"t": 1, "seq": 1, "ev": "scan"}\n', None),
    "bad op kind": (invoke().replace('"write"', '"scan"'), None),
    "bad op kind, crlf": (invoke().replace('"write"', '"scan"').replace("\n", "\r\n"), None),
    "write without a value": (invoke().replace('"val": 5', '"val": null'), None),
    "bad op kind after blank lines": ("\n\n" + invoke().replace('"write"', '"scan"'), None),
    "write without a value after blank lines": (
        "\n \n" + invoke().replace('"val": 5', '"val": null'), None
    ),
    "negative tick": (invoke().replace('"t": 2', '"t": -1'), "decoded"),
    "negative tick on a transport line": (invoke() + SEND.replace('"t": 2', '"t": -1') + "\n", "decoded"),
    "transport line with more text after it": (TIMER + "\n" + SEND + " " + SEND + "\n" + invoke(), None),
    "respond without invoke": ('{"t": 2, "seq": 0, "ev": "respond", "op": 0, "val": 1}\n', None),
    "respond value a string": (
        invoke() + '{"t": 3, "seq": 1, "ev": "respond", "op": 0, "val": "x"}\n', None
    ),
    "bad line after a bad operation": (
        '{"t": 2, "seq": 0, "ev": "respond", "op": 0, "val": 1}\n{broken\n', None
    ),
    "matched respond after a decoded invoke": (
        invoke().replace("}\n", "}  \n") + '{"t": 3, "seq": 1, "ev": "respond", "op": 0, "val": null}\n',
        "matched",
    ),
    "crlf invoke then a padded respond": (
        invoke().replace("\n", "\r\n") + '{"t": 3, "seq": 1, "ev": "respond", "op": 0, "val": null} \n',
        "decoded",
    ),
}


@pytest.mark.parametrize("text, path", BORDER_CASES.values(), ids=BORDER_CASES.keys())
def test_text_reader_agrees_with_the_reference_reader(text, path, monkeypatch):
    expected = outcome(lambda: extract_history(Trace.from_jsonl(text)))
    assert outcome(lambda: extract_history(text)) == expected
    if path is not None:
        decode, decoded = trace_module._decode, []  # each line decoded, without its LF

        def spy(line, *line_no):  # the reader numbers a line only when it refuses it
            decoded.append(line)
            return decode(line, *line_no)

        monkeypatch.setattr(trace_module, "_decode", spy)
        *_, (_, values) = scan_operations(text)
        lines = [line for line in text.split("\n") if line.strip(" \t\r\n")]
        last = lines[-1]
        assert lines.count(last) == 1  # so the line's text names it
        assert ("decoded" if last in decoded else "matched") == path
        assert type(values) is tuple


RESPOND_0 = '{"t": 2, "seq": 0, "ev": "respond", "op": 0, "val": 1}\n'
READ_INVOKE = (
    '{"t": 2, "seq": 1, "ev": "invoke", "op": 1, "node": 0, '
    '"kind": "read", "key": "A", "val": null}\n'
)

# (trace text, check's whole stderr): every line is read, JSON then field
# types, and the first line that fails is reported; history errors only after
MULTI_FAULT_CASES = {
    "history error, then a type error": (
        RESPOND_0 + READ_INVOKE.replace('"t": 2', '"t": null'),
        "line 2: invoke.t must be an integer, got null",
    ),
    "type error, then a JSON error": (
        invoke().replace('"val": 5', '"val": "x"') + "{broken\n",
        'line 1: invoke.val must be an integer or null, got "x"',
    ),
    "history error, then a JSON error": (
        RESPOND_0 + "{broken\n",
        "line 2: invalid JSON: Expecting property name enclosed in double quotes",
    ),
    "JSON error, then a type error": (
        "[1]\n" + READ_INVOKE.replace('"op": 1', '"op": "1"'),
        "line 1: record is not an object",
    ),
    "bad op kind, then a missing field": (
        invoke().replace('"write"', '"scan"') + RESPOND_0.replace(', "val": 1', ""),
        'line 1: invoke.kind must be one of "read", "write", got "scan"',
    ),
    "history error, then a type error past blank lines": (
        "\n" + RESPOND_0 + "\n\n" + READ_INVOKE.replace('"key": "A"', '"key": 7'),
        "line 5: invoke.key must be a string, got 7",
    ),
}


@pytest.mark.parametrize(
    "text, error", MULTI_FAULT_CASES.values(), ids=MULTI_FAULT_CASES.keys()
)
def test_a_trace_with_several_faults_reports_its_first_bad_line(text, error, tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--tc", "0", "--ta", "0"]) == 2
    assert capsys.readouterr().err == f"trace error: {error}\n"
    expected = (TraceParseError, error)
    assert outcome(lambda: extract_history(Trace.from_jsonl(text))) == expected


TIMERS = (TIMER + "\n") * 150
# (trace bytes, check's whole stderr, or None where another test pins it)
PIECE_CASES = {
    **{name: (text.encode(), None) for name, (text, _) in BORDER_CASES.items()},
    **{
        name: (text.encode(), f"trace error: {error}\n")
        for name, (text, error) in MULTI_FAULT_CASES.items()
    },
    "a multi-byte key across cuts": (
        (TIMER + "\n" + READ_INVOKE.replace('"A"', '"é€𝄞"')
         + '{"t": 3, "seq": 2, "ev": "respond", "op": 1, "val": 9}\n').encode(),
        "",
    ),
    "a bad op kind on a later piece": (
        (TIMERS + invoke().replace('"write"', '"scan"') + SEND + "\n").encode(),
        'trace error: line 151: invoke.kind must be one of "read", "write", got "scan"\n',
    ),
    "a bad op kind on a later piece, crlf": (
        (TIMERS + invoke().replace('"write"', '"scan"') + SEND + "\n").replace("\n", "\r\n").encode(),
        'trace error: line 151: invoke.kind must be one of "read", "write", got "scan"\n',
    ),
    "a write without a value": (
        (TIMER + "\n" + invoke().replace('"val": 5', '"val": null')).encode(),
        "trace error: write invoke without a value for op 0\n",
    ),
    "a bad line on a later piece": (
        (TIMERS + "{broken\n" + SEND + "\n").encode(),
        "trace error: line 151: invalid JSON: "
        "Expecting property name enclosed in double quotes\n",
    ),
    "a line longer than a piece": (
        (TIMER + "\n" + invoke(key='"' + "k" * 1000 + '"') + "[1]\n").encode(),
        "trace error: line 3: record is not an object\n",
    ),
    "a bad line, then a byte that is not UTF-8": (
        f"{TIMER}\n{{broken\n{SEND}\n".encode() + b"\xff\n",
        "config error: {path} is not UTF-8 text\n",
    ),
}


def _read_whole(path):
    """The reference reader: the whole file decoded in one go."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ConfigError(f"{path} is not UTF-8 text") from None


@pytest.mark.parametrize("data, err", PIECE_CASES.values(), ids=PIECE_CASES.keys())
def test_check_reads_pieces_of_any_size_as_the_whole_text(data, err, tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    argv = ["check", str(path), "--tc", "0", "--ta", "0"]
    with monkeypatch.context() as patch:
        patch.setattr(cli_module, "text_pieces", _read_whole)
        whole = main(argv), capsys.readouterr()
    if err is not None:
        assert whole[1].err == err.replace("{path}", str(path))
    # bytes per read: a cut inside every line, and every case in one block
    for size in (1, 2, 3, 5, 7, config_module.BLOCK):
        monkeypatch.setattr(config_module, "BLOCK", size)
        assert (main(argv), capsys.readouterr()) == whole, size


def test_a_pipe_is_read_in_blocks_like_a_file(monkeypatch):
    monkeypatch.setattr(config_module, "BLOCK", 256)
    line = TIMER + "\n"
    data = (line * (3 * 256 // len(line) + 1)).encode()  # more than two blocks, under a pipe's buffer
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    pieces = list(config_module.text_pieces(read))  # opens and closes the read end
    assert "".join(pieces) == data.decode()
    assert len(pieces) > 1
    assert max(map(len, pieces)) <= 256 + len(line)


# a duplicate response in the first block, then timer lines past two
# whole blocks: the fault between operations waits for the last line
TWO_BLOCKS = (TIMER + "\n") * (2 * config_module.BLOCK // len(TIMER + "\n") + 1)
ANSWERED_TWICE = invoke() + RESPOND_0 + RESPOND_0 + TWO_BLOCKS


def _write_and_close(fd, data):
    with open(fd, "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize("text, error", [
    (ANSWERED_TWICE + "{broken\n", f"line {4 + TWO_BLOCKS.count(chr(10))}: invalid JSON: "
                                   "Expecting property name enclosed in double quotes"),
    (ANSWERED_TWICE, "duplicate response for op 0"),
], ids=["and a bad line two blocks later", "alone"])
def test_a_history_fault_is_reported_after_every_line_is_read(text, error, tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--tc", "0", "--ta", "0"]) == 2
    assert capsys.readouterr().err == f"trace error: {error}\n"
    read, write = os.pipe()  # more than a pipe holds, so a thread writes it
    writer = threading.Thread(target=_write_and_close, args=(write, text.encode()))
    writer.start()
    got = outcome(lambda: extract_history(config_module.text_pieces(read)))
    writer.join()
    kind = HistoryIntegrityError if error.startswith("duplicate") else TraceParseError
    assert got == (kind, error)


def _kernel_trace(ops):
    config = ScenarioConfig.from_dict({
        "nodes": 3, "horizon": 2 * ops, "strategy": {"kind": "LocalFirst", "G": 8},
        "workload_gen": {"ops": ops, "keys": ["A", "B"], "read_fraction": 0.5},
    })
    return run_scenario(config).to_jsonl()


BAD_KIND = invoke("9999").replace('"write"', '"scan"')
KIND_ERROR = 'invoke.kind must be one of "read", "write", got "scan"\n'


@pytest.mark.parametrize("bad_line, error", [
    (None, None), ("{broken\n", "invalid JSON: "), (BAD_KIND, KIND_ERROR),
    (BAD_KIND.replace("\n", "\r\n"), KIND_ERROR),
], ids=["clean", "a bad last line", "a bad op kind last", "a bad op kind last, crlf"])
def test_check_reads_a_pipe_as_it_reads_the_file(bad_line, error, tmp_path, capsys):
    text = _kernel_trace(400)  # more than a pipe's buffer
    assert len(text) > 1 << 16
    if bad_line is not None:
        text += bad_line
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8")
    argv = ["--tc", "10", "--ta", "10"]
    code = main(["check", str(path), *argv])
    out, err = capsys.readouterr()
    if bad_line is not None:
        assert err.startswith(f"trace error: line {text.count(chr(10))}: {error}")
    src = str(Path(capsim.__file__).resolve().parents[1])
    piped = subprocess.run(
        [sys.executable, "-m", "capsim", "check", "/dev/stdin", *argv],
        input=text.encode(), capture_output=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == (code, out, err)


def _rewrite(line, rng):
    """The same record in another JSON spelling: separators, key order,
    padding, escaped key characters, CRLF."""
    items = list(json.loads(line).items())
    rng.shuffle(items)

    def key(name):
        if rng.random() < 0.3:
            return '"' + "".join(f"\\u{ord(c):04x}" for c in name) + '"'
        return json.dumps(name)

    comma, colon = rng.choice([",", ", ", " ,\t"]), rng.choice([":", ": ", " : "])
    body = comma.join(key(name) + colon + json.dumps(value) for name, value in items)
    pad = lambda: rng.choice(["", " ", "\t", " \t "])  # noqa: E731
    return pad() + "{" + body + "}" + pad() + rng.choice(["\n", "\r\n"])


# a scenario of any strategy, with outages that may outlast the horizon, so
# round-based strategies leave ops unanswered and the trace holds every
# operation kind
SCENARIOS = dict(
    kind=st.sampled_from(["LocalFirst", "SyncAll", "HybridDeadline"]),
    nodes=st.integers(min_value=1, max_value=4),
    outages=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 39), st.integers(1, 60)),
        max_size=3,
    ),
    ops=st.lists(
        st.tuples(
            st.integers(0, 39), st.integers(0, 3), st.booleans(),
            st.sampled_from(["A", "B", 'q"', "é"]), st.integers(),
        ),
        max_size=8,
    ),
)


def _scenario_trace(kind, nodes, outages, ops):
    return run_scenario(ScenarioConfig.from_dict({
        "nodes": nodes, "latency": 1, "horizon": 40,
        "strategy": {"kind": kind, "G": 3, "R": 2, "D": 4},
        "partitions": [
            {"a": a % nodes, "b": b % nodes, "start": start, "end": start + length}
            for a, b, start, length in outages
            if a % nodes != b % nodes
        ],
        "workload": [
            {"t": t, "node": node % nodes, "kind": "write" if write else "read",
             "key": key, "val": val if write else None}
            for t, node, write, key, val in ops
        ],
    }))


@given(**SCENARIOS, rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_text_reader_builds_the_kernel_history(kind, nodes, outages, ops, rng):
    trace = _scenario_trace(kind, nodes, outages, ops)
    expected = extract_history(trace)
    text = trace.to_jsonl()
    assert extract_history(text) == expected
    rewritten = "".join(
        _rewrite(line, rng) if rng.random() < 0.7 else line + "\n"
        for line in text.split("\n")[:-1]
    )
    assert extract_history(rewritten) == expected


BAD_LINES = {
    "broken JSON": "{broken\n",
    "a bad op kind": BAD_KIND,
    "a string id": invoke('"9999"'),
}


def _check_outcome(path):
    """``capsim check``'s exit code, stdout and stderr on the trace at ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", path, "--tc", "4", "--ta", "4"])
    return code, out.getvalue(), err.getvalue()


@given(
    **SCENARIOS,
    bad=st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from(sorted(BAD_LINES))),
                 min_size=1, max_size=3),
    twice=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_check_refuses_bad_kernel_trace_lines_at_any_block_size(kind, nodes, outages, ops, bad,
                                                               twice):
    lines = _scenario_trace(kind, nodes, outages, ops).to_jsonl().splitlines(keepends=True)
    for index, name in bad:
        index %= len(lines) + 1  # the end, too
        lines[index : index + 1] = [BAD_LINES[name]]
    if twice:  # two identical bad lines, the last one again
        lines.insert(index, lines[index])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        patch.setattr(cli_module, "text_pieces", _read_whole)
        whole = _check_outcome(path)
        patch.undo()
        assert whole[0] == 2 and whole[2].startswith("trace error: line ")
        for size in (1, 7, 256, config_module.BLOCK):
            patch.setattr(config_module, "BLOCK", size)
            assert _check_outcome(path) == whole, size


# two nodes cut apart for the whole run, so a HybridDeadline write answers
# at its deadline: 0, 4, 9 and 13 lines, across and between chunk sizes
CUT_CONFIGS = [
    {"nodes": 2, "horizon": horizon, "strategy": {"kind": "HybridDeadline", "R": 2, "D": 2},
     "partitions": [{"a": 0, "b": 1, "start": 0, "end": 100}],
     "workload": [{"t": 0, "node": 0, "kind": "write", "key": "A", "val": 1}][:ops]}
    for horizon, ops in ((1, 0), (1, 1), (3, 1), (5, 1))
]


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_chunks_join_to_the_whole_trace_at_any_chunk_size(size, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(trace_module, "CHUNK_LINES", size)
    counts = []
    for config in CUT_CONFIGS:
        trace = run_scenario(ScenarioConfig.from_dict(config))
        chunks, text, lines = list(trace.chunks()), trace.to_jsonl(), trace.lines
        counts.append(len(lines))
        assert "".join(chunks) == text == "".join(lines)
        assert [chunk.count("\n") for chunk in chunks] == [
            min(size, len(lines) - start) for start in range(0, len(lines), size)
        ]
        assert len(lines) == len(trace.fields) // 3
        assert [json.loads(line)["seq"] for line in lines] == list(range(len(lines)))
        assert trace.operations == [
            (r["ev"], (r["t"], *(r[name] for name, _ in RECORD_FIELDS[r["ev"]])))
            for r in trace.records if r["ev"] in OPERATIONS
        ]
        assert Trace.from_jsonl(text).to_jsonl() == text
        path, out = tmp_path / "config.json", tmp_path / "out.jsonl"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", str(path)]) == 0
        assert capsys.readouterr().out == text
        assert main(["simulate", str(path), "-o", str(out)]) == 0
        assert out.read_bytes() == text.encode()
    assert counts == [0, 4, 9, 13]
