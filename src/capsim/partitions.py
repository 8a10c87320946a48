"""Symmetric link-outage schedules and reachability queries.

A schedule is a set of half-open outage intervals [start, end) on
unordered node pairs. Two nodes can communicate at a tick when a path
of live links connects them; the longest stretch any pair spends with
no such path is the schedule's partition span.

Both questions are answered from one table, built on the first query:
the ticks at which the components of the live graph change, with a
component label per node from each. It is updated boundary by boundary
from the links that change there: a boundary costs O(n + changed links),
plus the size and down links of a component it splits, rather than a
scan of all node pairs, and memory grows with the number of component
changes, not of boundaries. ``reachable`` is a
bisection and a label comparison; ``max_partition_span`` visits only the
pairs each change splits apart or joins again.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import cached_property


class LinkOutage(namedtuple("LinkOutage", "a b start end")):
    """One symmetric outage on the link {a, b} over [start, end)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, start: int, end: int):
        # the rules between fields; config.OUTAGE_FIELDS holds each one's range
        if a == b:
            raise ValueError(f"outage endpoints must differ, got {a}")
        if not start < end:
            raise ValueError(f"empty outage interval [{start}, {end})")
        # store the unordered pair canonically
        return super().__new__(cls, min(a, b), max(a, b), start, end)


class PartitionSchedule:
    """All outages for a scenario, plus the size of the node set; ``ScenarioConfig`` checks them."""

    def __init__(self, node_count: int, outages: tuple[LinkOutage, ...] = ()):
        self.node_count, self.outages = node_count, tuple(outages)

    @cached_property
    def _segments(self) -> tuple[list[int], list[list[int]]]:
        """The ticks at which the components change, and a label per node from each on.

        Segment i spans [ticks[i], ticks[i + 1]), the last one without end;
        two nodes share a label exactly when a path of live links joins
        them there. Before the first tick every node is in one component.
        Built on first query rather than at construction, so reading a
        config stays cheap.

        At each boundary the links whose state changes are applied first.
        An up link then merges two components, relabelling the smaller. A
        down link inside one component keeps it whole when a live common
        neighbour of its ends remains; otherwise the component is split,
        as a whole, by one search of its complement graph (every pair of
        its nodes is linked but the down ones). A boundary that merges or
        splits nothing adds no segment.
        """
        changes: dict[int, dict[tuple[int, int], int]] = {}
        for o in self.outages:
            for tick, step in ((o.start, 1), (o.end, -1)):
                links = changes.setdefault(tick, {})
                links[o.a, o.b] = links.get((o.a, o.b), 0) + step
        n = self.node_count
        # a count per link, not a flag: overlapping outages on one pair must all end
        count: dict[tuple[int, int], int] = {}
        down: list[set[int]] = [set() for _ in range(n)]
        label, members = [0] * n, {0: list(range(n))}
        fresh = 1  # the next unused label
        ticks: list[int] = []
        labels: list[list[int]] = []
        for tick in sorted(changes):
            ups, downs = [], []
            for (a, b), step in changes[tick].items():
                before = count.get((a, b), 0)
                count[a, b] = after = before + step
                if not before and after:
                    down[a].add(b)
                    down[b].add(a)
                    downs.append((a, b))
                elif before and not after:
                    down[a].discard(b)
                    down[b].discard(a)
                    ups.append((a, b))
            changed = False
            for a, b in ups:
                small, big = label[a], label[b]
                if small == big:
                    continue
                if len(members[small]) > len(members[big]):
                    small, big = big, small
                moved = members.pop(small)
                for x in moved:
                    label[x] = big
                members[big] += moved
                changed = True
            for a, b in downs:
                group = label[a]
                if group != label[b]:
                    continue
                skip = down[a] | down[b]
                if any(c not in skip for c in members[group]):
                    continue  # a live common neighbour still joins a and b
                parts = _complement_components(members.pop(group), down)
                if len(parts) == 1:  # joined through a longer path
                    members[group] = parts[0]
                    continue
                parts.sort(key=len)
                members[group] = parts.pop()  # the largest part keeps its label
                for part in parts:
                    for x in part:
                        label[x] = fresh
                    members[fresh] = part
                    fresh += 1
                changed = True
            if changed:
                ticks.append(tick)
                labels.append(label.copy())
        return ticks, labels

    def reachable(self, t: int, a: int, b: int) -> bool:
        """True when a path of live links joins a and b at tick t.

        This is the normative communication test, and what the simulator
        uses to gate message delivery. Every pair is connected before tick 0.
        """
        if a == b:
            raise ValueError("reachable requires two distinct nodes")
        ticks, labels = self._segments
        i = bisect_right(ticks, t) - 1
        return i < 0 or labels[i][a] == labels[i][b]

    def max_partition_span(self, horizon: int) -> int:
        """Longest run of consecutive ticks any pair spends unreachable.

        Measured per unordered pair over [0, horizon); runs of distinct
        pairs do not concatenate. Returns 0 when every pair stays
        connected throughout, including the no-outage schedule. A pair's
        run starts at the segment that splits it and ends at the one that
        joins it again, so only the pairs a segment changes are visited.
        """
        since: dict[tuple[int, int], int] = {}  # open run per cut pair
        best = 0
        before = [0] * self.node_count
        for start, after in zip(*self._segments):
            if start >= horizon:
                break
            for pair in _pairs_split(before, after):
                since[pair] = start
            for pair in _pairs_split(after, before):
                best = max(best, start - since.pop(pair))
            before = after
        return max(best, horizon - min(since.values(), default=horizon))


def _complement_components(group: list[int], down: list[set[int]]) -> list[list[int]]:
    """The components of ``group`` when every pair in it is linked but the down ones.

    Each node visited keeps from the unvisited rest only the nodes it has
    a down link to, so the search costs O(len(group) + their down links).
    """
    rest, parts = set(group), []
    while rest:
        part = [rest.pop()]
        for x in part:  # the list grows as the search reaches nodes
            if not rest:
                break
            reached = rest - down[x]
            if reached:
                rest &= down[x]
                part += reached
        parts.append(part)
    return parts


def _pairs_split(before: list[int], after: list[int]):
    """Yield each pair (x, y), x < y, that shares a label in ``before`` but not in ``after``."""
    groups: dict[int, dict[int, list[int]]] = {}
    for x, (old, new) in enumerate(zip(before, after)):
        groups.setdefault(old, {}).setdefault(new, []).append(x)
    for parts in groups.values():
        parts = list(parts.values())
        for i, xs in enumerate(parts):
            for ys in parts[i + 1:]:
                for x in xs:
                    for y in ys:
                        yield (x, y) if x < y else (y, x)
