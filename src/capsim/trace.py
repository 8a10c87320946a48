"""Trace records and their JSONL wire format.

One event per line, field order fixed, integers unquoted, LF endings.
Kinds: invoke, respond, send, deliver, drop, timer, plus an
``unanswered`` marker emitted at the horizon for every client request
that never received a response. ``RECORD_FIELDS`` states the format once:
each kind's line template (``TEMPLATES``) and the one pattern that reads
lines back are built from it; ``scan_operations`` reads each piece of a
trace with one ``findall`` of it, and a line with a negative id or tick
takes the json path instead. A template is the stamp (``STAMP``: t, then
the seq's key), the seq, and the kind's rest (``RESTS``). A run records
fields that ``Trace.chunks`` joins into lines only when they are read.
"""

from __future__ import annotations

import functools
import json
import re

from .config import INT, OP_FIELDS, OPT, REQUIRED, STR, read_json
from .errors import ConfigError, TraceParseError

# The fields of each record kind after "t", "seq" and "ev", in wire order,
# with their JSON types, which also say how each value is written: INT
# with %d, STR as json.dumps writes it (ASCII-escaped), OPT as null or %d.
# A line is then byte for byte json.dumps(record) + "\n". Operation records
# are read back by the same types, and an invoke's kind by a config op's range.
RECORD_FIELDS: dict[str, tuple[tuple[str, frozenset], ...]] = {
    "invoke": (("op", INT), ("node", INT), ("kind", STR), ("key", STR), ("val", OPT)),
    "respond": (("op", INT), ("val", OPT)),
    "send": (("src", INT), ("dst", INT), ("msg", INT)),
    "deliver": (("src", INT), ("dst", INT), ("msg", INT)),
    "drop": (("src", INT), ("dst", INT), ("msg", INT)),
    "timer": (("node", INT), ("timer", STR)),
    "unanswered": (("op", INT),),
}
# the kinds a history is built from; the others are transport records
OPERATIONS = ("invoke", "respond", "unanswered")
# per operation kind: its read_json table, t first, then RECORD_FIELDS order
_OPERATION_TABLES = {
    ev: {name: (name, kind, REQUIRED, OP_FIELDS["kind"][3] if name == "kind" else None)
         for name, kind in (("t", INT), *RECORD_FIELDS[ev])}
    for ev in OPERATIONS
}

# ids and ticks are written non-negative, so their slot takes no sign: a
# line with a negative one is decoded instead, to the same values
_INT = "(?:0|[1-9][0-9]{0,17})"  # at most 18 digits: far under int()'s limit
# per type: the template slot, and the text that slot writes as (literal
# before, pattern of the value, literal after). Each pattern takes only
# text json.loads reads as that same value: a string is printable ASCII
# without '"' or '\', so its text is its value.
_SLOTS = {
    INT: ("%d", ("", _INT, "")),
    STR: ("%s", ('"', r"[ !#-\[\]-~]*", '"')),
    OPT: ("%s", ("", "null|-?" + _INT, "")),
}

_JSON_SPACE = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode
STAMP = '{"t": %d, "seq": '  # how every line starts, up to its seq
END = "}\n"  # how every line ends, after its last value
CHUNK_LINES = 4096  # the most lines Trace.chunks joins into one text


def _rest(ev: str) -> str:
    """``ev``'s line after its seq: ``STAMP % t + str(seq) + rest % fields``
    writes its line, given each STR field as ``json.dumps`` writes it and
    each OPT field as ``"null"`` or ``"%d" % value``."""
    slots = [f'"{name}": {_SLOTS[kind][0]}' for name, kind in RECORD_FIELDS[ev]]
    return ", ".join(["", f'"ev": "{ev}"', *slots]) + END


RESTS = {ev: _rest(ev) for ev in RECORD_FIELDS}
# each kind's rest up to its last value, the slot that END follows
HEADS = {ev: rest[: rest.rindex("%")] for ev, rest in RESTS.items()}
TEMPLATES = {ev: STAMP + "%d" + rest for ev, rest in RESTS.items()}
_HEAD = STAMP + '%d, "ev": "'  # how every template starts


def _pattern(template: str, slots, captured) -> str:
    """A regex for exactly the text ``template`` writes, a final LF also as
    CRLF; ``slots`` are (type, range) pairs, and captured ones become groups."""
    body = template.removesuffix("\n")
    literals = re.split("%[ds]", body)
    out = [re.escape(literals[0])]
    for (kind, bounds), group, literal in zip(slots, captured, literals[1:]):
        before, value, after = _SLOTS[kind][1]
        if bounds is not None:  # a range here is the strings a STR field allows
            value = "|".join(map(re.escape, bounds))
        value = f"({value})" if group else f"(?:{value})"
        out += [re.escape(before), value, re.escape(after + literal)]
    return "".join(out) + ("\r?\n" if body != template else "")


@functools.cache
def _matcher():
    """The pattern that reads a piece of trace text, compiled on first use.

    Every match ends at a line end: a run of transport lines, each exactly
    as its template writes it, then one more line. That line is an
    operation line in its template's form, group 1 its t and then each
    operation kind's fields in ``RECORD_FIELDS`` order, or else any other
    line, held whole without its LF by the last group. A slot with a range
    takes only its strings, so an invoke of another kind is that other
    line, decoded and refused.
    """
    transport, operations = [], []
    for ev, template in TEMPLATES.items():
        fields = RECORD_FIELDS[ev]
        table = _OPERATION_TABLES.get(ev)  # a transport kind's fields have no range
        slots = [(kind, table and table[name][3]) for name, kind in fields]
        tail = _pattern(template[len(_HEAD) :], slots, [ev in OPERATIONS] * len(fields))
        (operations if ev in OPERATIONS else transport).append(tail)
    head = _pattern(_HEAD, [(INT, None)] * 2, (False, False))
    first = _pattern(_HEAD, [(INT, None)] * 2, (True, False))
    other = r"([^\n]*)(?:\n|\Z)"
    return re.compile(
        f"(?:{head}(?:{'|'.join(transport)}))*(?:{first}(?:{'|'.join(operations)})|{other})"
    )


def _decode(line: str, line_no: int = 0) -> dict | None:
    """One line as a record, or None if it is blank.

    A line is accepted exactly when ``json.loads`` accepts it: JSON
    whitespace is stripped from both ends and what remains must be a
    single JSON value, decoded by one ``raw_decode`` call. A refusal names
    ``line_no``; a reader that does not know it yet passes none and
    renumbers the error.
    """
    line = line.strip(_JSON_SPACE)
    if not line:
        return None
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
    return record


def _values(record: dict, ev: str, line_no: int = 0) -> tuple:
    """A decoded operation record's values in ``RECORD_FIELDS`` order, t first."""
    try:
        return tuple(read_json(record, _OPERATION_TABLES[ev], ev).values())
    except ConfigError as exc:
        raise TraceParseError(line_no, str(exc)) from None


def scan_operations(pieces):
    """Yield the operation records of a JSONL trace, in file order, as (ev, values).

    ``pieces`` is the text as one str, or as pieces that each end a line
    (``config.text_pieces``), read once. Every line is read as
    ``Trace.from_jsonl`` reads it, but one ``findall`` of the matcher reads
    each piece, and no dict is built for a line in the writer's own form,
    LF or CRLF ended: a transport line is dropped and an operation line's
    groups become its typed values. Any other line, such as one with a
    negative id or tick, is decoded by ``json`` on its own, an operation's
    dict typed into the same values. The first bad line raises its error
    once the rest of the pieces are read, so a later piece that is not
    UTF-8 is reported first; only its piece is matched again, to number it.
    """
    if isinstance(pieces, str):
        pieces = (pieces,)
    matcher = _matcher()
    lines = 0  # the LFs in the pieces before this one
    rest = iter(pieces)
    for text in rest:
        decoded = 0  # the other lines of this piece read so far
        # the groups of the operation kinds, in RECORD_FIELDS order, then the other line
        for t, op, node, kind, key, val, r_op, r_val, u_op, line in matcher.findall(text):
            if op:
                yield "invoke", (int(t), int(op), int(node), kind, key,
                                 None if val == "null" else int(val))
            elif r_op:
                yield "respond", (int(t), int(r_op), None if r_val == "null" else int(r_val))
            elif u_op:
                yield "unanswered", (int(t), int(u_op))
            elif line:
                decoded += 1
                try:
                    record = _decode(line)
                    if record is not None and (ev := record["ev"]) in OPERATIONS:
                        yield ev, _values(record, ev)
                except TraceParseError as exc:
                    for _ in rest:  # a later piece that is not UTF-8 is reported first
                        pass
                    last = matcher.groups
                    start = [m.start(last) for m in matcher.finditer(text) if m[last]][decoded - 1]
                    raise TraceParseError(lines + text.count("\n", 0, start) + 1, exc.message) from None
        lines += text.count("\n")


class TextCache(dict):
    """``make(key)`` for each key, made on first use and kept."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


class Trace:
    """A trace's JSONL lines, and its operations typed for the history.

    A run records each line as three ``fields``: its tick's stamp, its
    kind's ``HEADS`` entry filled in, and its last value (an int, "null"
    or ""); its seq is its index. ``from_jsonl`` keeps the lines it read,
    blank ones skipped, in ``read``. ``operations`` holds (ev, values in
    ``RECORD_FIELDS`` order, t first), as ``scan_operations`` reads them,
    or None after a run that kept no history. ``records`` decodes every line.
    """

    def __init__(self) -> None:
        self.fields: list = []
        self.read: list[str] = []
        self.operations: list[tuple[str, tuple]] | None = []
        self.quoted = TextCache(json.dumps)  # per trace, so no run keeps another's strings

    def chunks(self):
        """The JSONL text in runs of at most ``CHUNK_LINES`` lines, made only here."""
        read, fields, step = self.read, self.fields, 3 * CHUNK_LINES
        for start in range(0, len(read), CHUNK_LINES):
            yield "".join(read[start : start + CHUNK_LINES])
        for start in range(0, len(fields), step):
            run = fields[start : start + step]
            yield "".join([f"{stamp}{seq}{middle}{last}{END}" for seq, stamp, middle, last
                           in zip(range(start // 3, len(fields)), run[::3], run[1::3], run[2::3])])

    @property
    def lines(self) -> list[str]:
        return [line for chunk in self.chunks() for line in re.findall("[^\n]*\n", chunk)]

    @property
    def records(self) -> list[dict]:
        return [_decode(line, line_no) for line_no, line in enumerate(self.lines, start=1)]

    def to_jsonl(self) -> str:
        return "".join(self.chunks())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse one JSON object per LF-terminated line; blank lines are skipped."""
        trace = cls()
        for line_no, line in enumerate(text.split("\n"), start=1):
            if (record := _decode(line, line_no)) is not None:
                if (ev := record["ev"]) in OPERATIONS:
                    trace.operations.append((ev, _values(record, ev, line_no)))
                trace.read.append(line + "\n")
        return trace
