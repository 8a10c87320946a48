"""Trace records and their JSONL wire format.

One event per line, field order fixed, integers unquoted, LF endings.
Kinds: invoke, respond, send, deliver, drop, timer, plus an
``unanswered`` marker emitted at the horizon for every client request
that never received a response. ``RECORD_FIELDS`` states the format once:
each kind's record builder and line template are compiled from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .config import INT, OPT, STR, read_text

# The fields of each record kind after "t", "seq" and "ev", in wire order,
# with their JSON types, which also say how each value is written: INT
# with %d, STR as json.dumps writes it (ASCII-escaped), OPT as null or %d.
# A line is then byte for byte json.dumps(record) + "\n". The checker reads
# records by the same types.
RECORD_FIELDS: dict[str, tuple[tuple[str, frozenset], ...]] = {
    "invoke": (("op", INT), ("node", INT), ("kind", STR), ("key", STR), ("val", OPT)),
    "respond": (("op", INT), ("val", OPT)),
    "send": (("src", INT), ("dst", INT), ("msg", INT)),
    "deliver": (("src", INT), ("dst", INT), ("msg", INT)),
    "drop": (("src", INT), ("dst", INT), ("msg", INT)),
    "timer": (("node", INT), ("timer", STR)),
    "unanswered": (("op", INT),),
}

# per type: the template slot and the expression that fills it from r
_SLOTS = {
    INT: ("%d", "r[{0!r}]"),
    STR: ("%s", "quoted[r[{0!r}]]"),
    OPT: ("%s", '("null" if r[{0!r}] is None else "%d" % r[{0!r}])'),
}

_JSON_SPACE = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode
_LINES: dict = {}  # ev -> line(record, quoted), filled by _compile


class TraceParseError(ValueError):
    """A trace line could not be decoded; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _compile(ev: str):
    """Build ``<ev>_record(t, seq, ...)`` and register the writer of its line."""
    fields = (("t", INT), ("seq", INT), *RECORD_FIELDS[ev])
    names = [name for name, _ in fields]
    items = [f"{name!r}: {name}" for name in names]
    slots = [f'"{name}": {_SLOTS[kind][0]}' for name, kind in fields]
    items.insert(2, f"'ev': {ev!r}")
    slots.insert(2, f'"ev": "{ev}"')
    values = [_SLOTS[kind][1].format(name) for name, kind in fields]
    template = "{" + ", ".join(slots) + "}\n"
    source = (
        f"def {ev}_record({', '.join(names)}):\n"
        f"    return {{{', '.join(items)}}}\n"
        f"def line(r, quoted):\n"
        f"    return {template!r} % ({', '.join(values)},)\n"
    )
    env = {"__name__": __name__}
    exec(source, env)
    _LINES[ev] = env["line"]
    return env[f"{ev}_record"]


invoke_record = _compile("invoke")
respond_record = _compile("respond")
send_record = _compile("send")
deliver_record = _compile("deliver")
drop_record = _compile("drop")
timer_record = _compile("timer")
unanswered_record = _compile("unanswered")


class _Quoted(dict):
    """json.dumps of each distinct string, computed on first use."""

    def __missing__(self, value):
        text = self[value] = json.dumps(value)
        return text


@dataclass
class Trace:
    """An ordered list of trace records with byte-stable serialization."""

    records: list[dict] = field(default_factory=list)
    # file lines the reader skipped as blank, ascending; see line_no
    blank_lines: list[int] = field(default_factory=list, compare=False, repr=False)

    def to_jsonl(self) -> str:
        quoted, lines = _Quoted(), _LINES
        return "".join([lines[r["ev"]](r, quoted) for r in self.records])

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse one JSON object per LF-terminated line; blank lines are skipped.

        A line is accepted exactly when ``json.loads`` accepts it: JSON
        whitespace is stripped from both ends and what remains must be a
        single JSON value, decoded by one ``raw_decode`` call.
        """
        records, blank_lines = [], []
        append = records.append
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.strip(_JSON_SPACE)
            if not line:
                blank_lines.append(line_no)
                continue
            try:
                record, end = _raw_decode(line)
                if end != len(line):
                    raise ValueError
            except RecursionError:
                raise TraceParseError(line_no, "value nested too deeply") from None
            except ValueError:
                # failure path only: json.loads rejects the line too, and
                # words why ("Extra data", a byte-order mark, ...)
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceParseError(line_no, f"invalid JSON: {exc.msg}") from None
                except ValueError:  # an integer past Python's digit limit
                    raise TraceParseError(line_no, "integer too long to read") from None
                raise
            if not isinstance(record, dict):
                raise TraceParseError(line_no, "record is not an object")
            if "t" not in record or "seq" not in record or "ev" not in record:
                missing = next(name for name in ("t", "seq", "ev") if name not in record)
                raise TraceParseError(line_no, f"missing field {missing!r}")
            append(record)
        return cls(records, blank_lines)

    @classmethod
    def read(cls, path) -> "Trace":
        return cls.from_jsonl(read_text(path))

    def line_no(self, index: int) -> int:
        """The file line of ``records[index]``, counting skipped blank lines."""
        line = index + 1
        for blank in self.blank_lines:
            if blank > line:
                break
            line += 1
        return line
