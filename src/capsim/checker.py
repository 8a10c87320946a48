"""Post-hoc trace verification.

From a trace we extract a history of client operations, then judge it
against a declared pair of bounds:

* availability: every request must answer within ``declared_ta`` ticks
  of its invoke, and answering at all is part of the deal;
* consistency: a read anchored at tick T with staleness budget ``tc``
  must return either the newest write invoked at or before ``T - tc``
  (the baseline, or the initial absent value when there is none) or
  any write invoked inside the window ``(T - tc, T]``. Newer writes
  are optional, older ones are forbidden.

The anchor T is the read's response tick by default. Anchoring at the
invoke tick instead is available for sensitivity analysis; it treats
everything the service learned while the client was waiting as
optional rather than as added staleness, which is the right lens when
a strategy deliberately delays responses (see ``harness``).

``check``, ``min_consistency_bound`` and the frontier rows share one per-read
function, ``read_staleness``: the least budget admitting a read (Golab, Li &
Shah's Delta-atomicity), ``max(0, T - after + 1)`` for ``after`` the invoke
tick of the write superseding the value read, the key's first write for the
initial value. ``History`` indexes each key once: writes in version order,
their invoke ticks, each value's write positions. A read then costs two
bisections, so R reads over at most W writes per key cost O((R + W) log W).
Admitted values only grow with the budget, so a read violates ``declared_tc``
exactly when its least budget exceeds it; the allowed set, whose baseline is
then a write, is built only to word that violation.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .errors import HistoryIntegrityError
from .trace import Trace, scan_operations

INFINITE = math.inf

TIME_REFS = ("response", "invoke")


class OperationRecord:
    """One client operation as observed in the trace.

    ``kind`` is "read" or "write"; ``written`` is the value a write
    carried and ``returned`` the value a read's response carried.
    """

    __slots__ = ("op_id", "kind", "key", "node", "invoke_tick", "response_tick", "written",
                 "returned", "answered")

    def __init__(self, op_id: int, kind: str, key: str, node: int, invoke_tick: int,
                 response_tick: int | None = None, written: int | None = None,
                 returned: int | None = None, answered: bool = False):
        self.op_id, self.kind, self.key = op_id, kind, key
        self.node, self.invoke_tick, self.response_tick = node, invoke_tick, response_tick
        self.written, self.returned, self.answered = written, returned, answered

    def __eq__(self, other):
        if type(other) is not OperationRecord:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


# one key's writes, indexed for bisection: the writes in version order
# (invoke_tick, node, op_id), the invoke tick of each (nondecreasing), and
# each written value's ascending write positions
KeyIndex = namedtuple("KeyIndex", "writes ticks positions")

_NO_WRITES = KeyIndex([], [], {})


class History:
    """Operation records, trusted as ``extract_history`` checked them, indexed per key."""

    def __init__(self, records: list[OperationRecord]):
        self.records = records
        by_key: dict[str, list[OperationRecord]] = {}
        for rec in records:
            if rec.kind == "write":
                by_key.setdefault(rec.key, []).append(rec)
        self._index = {}
        for key, writes in by_key.items():
            # writer id then op id break same-tick ties, matching the
            # registers' last-writer-wins version order
            writes.sort(key=lambda w: (w.invoke_tick, w.node, w.op_id))
            positions: dict[int, list[int]] = {}
            for i, w in enumerate(writes):
                positions.setdefault(w.written, []).append(i)
            ticks = [w.invoke_tick for w in writes]
            self._index[key] = KeyIndex(writes, ticks, positions)

    def __eq__(self, other):  # the index is a function of the records
        if type(other) is not History:
            return NotImplemented
        return self.records == other.records

    def index(self, key: str) -> KeyIndex:
        return self._index.get(key, _NO_WRITES)

    def reads(self) -> list[OperationRecord]:
        return [r for r in self.records if r.kind == "read"]


def extract_history(source) -> History:
    """Build a History from a trace's JSONL text or from a Trace, validating as we go.

    The text is one str or its pieces (see ``scan_operations``), and the
    history is built as its lines are read: no list of every operation is
    held. A line fault names its file line; a fault between operations
    names its op, and is raised only once every line is read, so a line
    fault anywhere in the text is the one reported. Every rule between
    operations is checked in this one pass, so of several such faults the
    first faulty operation line in file order is the one named.
    """
    ops = iter(source.operations if isinstance(source, Trace) else scan_operations(source))
    by_op: dict[int, OperationRecord] = {}  # in invoke order
    marked: set[int] = set()  # the ops an unanswered marker names
    try:
        for ev, values in ops:
            op_id = values[1]
            if ev == "invoke":
                t, _, node, kind, key, val = values
                if op_id in by_op:
                    raise HistoryIntegrityError(f"duplicate invoke for op {op_id}")
                record = OperationRecord(op_id, kind, key, node, t)
                if kind == "write":
                    if val is None:
                        raise HistoryIntegrityError(f"write invoke without a value for op {op_id}")
                    record.written = val
                if t < 0:
                    raise HistoryIntegrityError(f"op {op_id} is invoked before tick 0")
                by_op[op_id] = record
            elif ev == "respond":
                if op_id not in by_op:
                    raise HistoryIntegrityError(f"response for unknown op {op_id}")
                record = by_op[op_id]
                if record.answered:
                    raise HistoryIntegrityError(f"duplicate response for op {op_id}")
                if op_id in marked:
                    raise HistoryIntegrityError(f"response for op {op_id} after its unanswered marker")
                if values[0] < record.invoke_tick:
                    raise HistoryIntegrityError(f"op {op_id} responds before it is invoked")
                record.response_tick = values[0]
                record.answered = True
                if record.kind == "read":
                    record.returned = values[2]
            elif op_id not in by_op:
                raise HistoryIntegrityError(f"unanswered marker for unknown op {op_id}")
            elif by_op[op_id].answered:
                raise HistoryIntegrityError(f"unanswered marker for answered op {op_id}")
            elif op_id in marked:
                raise HistoryIntegrityError(f"duplicate unanswered marker for op {op_id}")
            elif values[0] < by_op[op_id].invoke_tick:
                raise HistoryIntegrityError(f"op {op_id} is marked unanswered before it is invoked")
            else:
                marked.add(op_id)
    except HistoryIntegrityError:
        for _ in ops:  # the rest is read only for a line fault, which is reported first
            pass
        raise
    return History(list(by_op.values()))


def valid_read_values(
    history: History,
    key: str,
    response_tick: int,
    tc: int,
    *,
    optional_until: int | None = None,
) -> set:
    """The set of values a read anchored at ``response_tick`` may return.

    ``optional_until`` extends the optional window past the anchor; the
    invoke-anchored mode passes the actual response tick there so that
    values learned while waiting stay admissible. ``None`` in the result
    stands for the initial absent value.
    """
    limit = response_tick if optional_until is None else optional_until
    writes, ticks, _ = history.index(key)
    # the cutoff is a plain int; below zero it leaves no baseline write
    first = bisect_right(ticks, response_tick - tc)
    values = {writes[first - 1].written if first else None}
    values.update(w.written for w in writes[first : bisect_right(ticks, limit)])
    return values


def read_staleness(index: KeyIndex, anchor: int, response_tick: int, returned) -> int | None:
    """Least budget admitting a read anchored at ``anchor``, ``max(0, anchor - after + 1)``, or None."""
    _, ticks, positions = index
    i = -1  # the initial value, which the key's first write supersedes
    if returned is not None:
        # of the value's writes invoked by the response, the last has the latest successor
        mine = positions.get(returned, ())
        k = bisect_left(mine, bisect_right(ticks, response_tick)) - 1
        if k < 0:
            return None
        i = mine[k]
    after = ticks[i + 1] if i + 1 < len(ticks) else anchor + 1  # the superseder's tick, or past the anchor
    return max(0, anchor - after + 1)


def min_consistency_bound(history: History, *, time_ref: str = "response") -> int:
    """Least staleness budget under which every answered read is valid."""
    if time_ref not in TIME_REFS:
        raise ValueError(f"time_ref must be one of {TIME_REFS}")
    worst = 0
    for read in history.reads():
        if not read.answered:
            continue
        anchor = read.response_tick if time_ref == "response" else read.invoke_tick
        needed = read_staleness(history.index(read.key), anchor, read.response_tick, read.returned)
        if needed is None:
            raise unadmitted(read.op_id, read.returned)
        worst = max(worst, needed)
    return worst


def unadmitted(op_id: int, returned) -> HistoryIntegrityError:
    return HistoryIntegrityError(
        f"read {op_id} returned {returned!r}, which no staleness budget admits")


class Violation(namedtuple("Violation", "op_id kind detail")):
    """One failed op; ``kind`` is "availability", "consistency" or "integrity"."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"op": self.op_id, "kind": self.kind, "detail": self.detail}


class CheckReport(namedtuple("CheckReport", "empirical_ta empirical_tc_min violations")):
    """Verdict for one history against one declared pair of bounds.

    ``empirical_ta`` is int-valued, or math.inf when something never answered.
    """

    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        ta = "inf" if math.isinf(self.empirical_ta) else self.empirical_ta
        return {
            "empirical_ta": ta,
            "empirical_tc_min": self.empirical_tc_min,
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _format_values(values: set) -> str:
    return "{" + ", ".join(map(str, sorted(values))) + "}"


def check(
    history: History,
    declared_tc: int,
    declared_ta: float,
    *,
    time_ref: str = "response",
) -> CheckReport:
    """Verify a history against declared staleness and latency bounds.

    Violations are data, not errors; the report also carries the
    empirical bounds the history actually achieved.
    """
    if time_ref not in TIME_REFS:
        raise ValueError(f"time_ref must be one of {TIME_REFS}")
    violations: list[Violation] = []
    worst_tc = 0
    for op in history.records:
        if not op.answered:
            detail = "unanswered at horizon"
            violations.append(Violation(op.op_id, "availability", detail))
            continue
        latency = op.response_tick - op.invoke_tick
        if latency > declared_ta:
            detail = f"latency {latency} exceeds bound {declared_ta}"
            violations.append(Violation(op.op_id, "availability", detail))
        if op.kind != "read":
            continue
        anchor = op.response_tick if time_ref == "response" else op.invoke_tick
        needed = read_staleness(history.index(op.key), anchor, op.response_tick, op.returned)
        if needed is None:
            if op.returned in history.index(op.key).positions:
                detail = f"written to key {op.key!r} only after tick {op.response_tick}"
            else:
                detail = f"never written to key {op.key!r}"
            detail = f"returned {op.returned}, {detail}"
            violations.append(Violation(op.op_id, "integrity", detail))
            continue
        worst_tc = max(worst_tc, needed)
        if needed > declared_tc:
            allowed = valid_read_values(history, op.key, anchor, declared_tc,
                                        optional_until=op.response_tick)
            shown = "initial" if op.returned is None else op.returned
            detail = f"returned {shown}, allowed {_format_values(allowed)}"
            violations.append(Violation(op.op_id, "consistency", detail))
    return CheckReport(empirical_availability_bound(history), worst_tc, violations)


def empirical_availability_bound(history: History) -> float:
    """Worst response latency in the history; infinite if anything hung."""
    if not all(op.answered for op in history.records):
        return INFINITE
    return max((op.response_tick - op.invoke_tick for op in history.records), default=0)


def bound_holds(tc: int, ta: float, tp: int, slack: int = 0) -> bool:
    """Do staleness ``tc`` plus latency ``ta`` cover the partition span ``tp``?

    An unavailable run (infinite latency) satisfies the bound trivially.
    ``slack`` absorbs declared artifacts of the discrete model: message
    latency on each side of a cut, plus one gossip period for
    anti-entropy strategies.
    """
    return tc + ta >= tp - slack
