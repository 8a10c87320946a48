"""Symmetric link-outage schedules and reachability queries.

A schedule is a set of half-open outage intervals [start, end) on
unordered node pairs. Two nodes can communicate at a tick when a path
of live links connects them; the longest stretch any pair spends with
no such path is the schedule's partition span.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class LinkOutage:
    """One symmetric outage on the link {a, b} over [start, end)."""

    a: int
    b: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"outage endpoints must differ, got {self.a}")
        if self.a < 0 or self.b < 0:
            raise ValueError("node ids must be non-negative")
        if not self.start < self.end:
            raise ValueError(f"empty outage interval [{self.start}, {self.end})")
        if self.start < 0:
            raise ValueError("outage start must be non-negative")
        if self.a > self.b:
            # store the unordered pair canonically
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)


@dataclass(frozen=True)
class PartitionSchedule:
    """All outages for a scenario, plus the size of the node set."""

    node_count: int
    outages: tuple[LinkOutage, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        object.__setattr__(self, "outages", tuple(self.outages))
        for o in self.outages:
            if o.b >= self.node_count:
                raise ValueError(f"outage {o} references node >= {self.node_count}")

    def to_dicts(self) -> list[dict]:
        return [
            {"a": o.a, "b": o.b, "start": o.start, "end": o.end} for o in self.outages
        ]

    @cached_property
    def _segments(self) -> tuple[list[int], list[list[int]]]:
        """Boundary ticks, and a component label per node for each segment.

        Segment i spans [bounds[i], bounds[i + 1]), the last one without
        end; the live graph is constant inside a segment. Built on first
        query rather than at construction, so reading a config stays cheap.
        """
        events: dict[int, list[tuple[int, int, int]]] = {0: []}
        for o in self.outages:
            events.setdefault(o.start, []).append((o.a, o.b, 1))
            events.setdefault(o.end, []).append((o.a, o.b, -1))
        bounds = sorted(events)
        # a count, not a flag: overlapping outages on one pair must all end
        down: dict[tuple[int, int], int] = {}
        n = self.node_count
        labels = []
        for tick in bounds:
            for a, b, step in events[tick]:
                down[a, b] = down.get((a, b), 0) + step
            label = list(range(n))
            for a in range(n):
                for b in range(a + 1, n):
                    if label[a] != label[b] and not down.get((a, b)):
                        old, new = label[b], label[a]
                        label = [new if x == old else x for x in label]
            labels.append(label)
        return bounds, labels

    def reachable(self, t: int, a: int, b: int) -> bool:
        """True when a path of live links joins a and b at tick t.

        This is the normative communication test, and what the simulator
        uses to gate message delivery. Every pair is connected before tick 0.
        """
        if a == b:
            raise ValueError("reachable requires two distinct nodes")
        bounds, labels = self._segments
        i = bisect_right(bounds, t) - 1
        return i < 0 or labels[i][a] == labels[i][b]

    def max_partition_span(self, horizon: int) -> int:
        """Longest run of consecutive ticks any pair spends unreachable.

        Measured per unordered pair over [0, horizon); runs of distinct
        pairs do not concatenate. Returns 0 when every pair stays
        connected throughout, including the no-outage schedule.
        """
        n = self.node_count
        since: dict[tuple[int, int], int] = {}  # open run per cut pair
        best = 0
        for start, label in zip(*self._segments):
            if start >= horizon:
                break
            cut = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if label[i] != label[j]
            }
            for pair in since.keys() - cut:
                best = max(best, start - since.pop(pair))
            for pair in cut:
                since.setdefault(pair, start)
        return max(best, horizon - min(since.values(), default=horizon))
