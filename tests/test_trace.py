import json

import pytest

from capsim.trace import Trace, TraceParseError

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
