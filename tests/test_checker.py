import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.checker import (
    History,
    HistoryIntegrityError,
    OperationRecord,
    TIME_REFS,
    bound_holds,
    check,
    empirical_availability_bound,
    extract_history,
    min_consistency_bound,
    read_staleness,
    valid_read_values,
)
from capsim.config import ScenarioConfig
from capsim.kernel import run_scenario
from capsim.trace import Trace, TraceParseError

from histgen import (
    admits_oracle,
    min_tc_oracle,
    random_history,
    read_min_tc_oracle,
)


def w(op_id, t, val, key="A", node=0):
    return OperationRecord(
        op_id, "write", key, node, t, response_tick=t, written=val, answered=True
    )


def r(op_id, invoke, returned, key="A", node=0, response=None):
    return OperationRecord(
        op_id,
        "read",
        key,
        node,
        invoke,
        response_tick=invoke if response is None else response,
        returned=returned,
        answered=True,
    )


def figure_history(*reads):
    """Writes 2@0, 5@3, 4@6 followed by the given read records."""
    return History([w(0, 0, 2), w(1, 3, 5), w(2, 6, 4), *reads])


class TestValidReadValues:
    def test_full_window_admits_every_write(self):
        h = figure_history()
        assert valid_read_values(h, "A", 8, 8) == {2, 5, 4}

    def test_zero_budget_forces_the_latest_write(self):
        h = figure_history()
        assert valid_read_values(h, "A", 8, 0) == {4}

    def test_partial_window(self):
        h = figure_history()
        assert valid_read_values(h, "A", 8, 3) == {5, 4}

    def test_before_any_write_only_initial_is_legal(self):
        h = figure_history()
        assert valid_read_values(h, "A", 8, 100) == {None, 2, 5, 4}
        assert valid_read_values(h, "A", 0, 1) == {None, 2}

    def test_unwritten_key_returns_initial(self):
        h = figure_history()
        assert valid_read_values(h, "B", 8, 3) == {None}

    def test_monotone_in_the_budget(self):
        h = figure_history()
        for tc in range(10):
            assert valid_read_values(h, "A", 8, tc) <= valid_read_values(
                h, "A", 8, tc + 1
            )


class TestMinConsistencyBound:
    def test_latest_write_reads_need_nothing(self):
        h = figure_history(r(3, 8, 4))
        assert min_consistency_bound(h) == 0

    def test_oldest_value_costs_the_full_window(self):
        # returning 2 at T=8 is legal only once the write at 3 stops being
        # mandatory, i.e. 8 - tc < 3
        h = figure_history(r(3, 8, 2))
        assert min_consistency_bound(h) == 6

    def test_middle_value(self):
        h = figure_history(r(3, 8, 5))
        assert min_consistency_bound(h) == 3

    def test_initial_value_costs_past_the_first_write(self):
        h = figure_history(r(3, 8, None))
        assert min_consistency_bound(h) == 9

    def test_never_written_value_has_no_bound(self):
        h = figure_history(r(3, 8, 42))
        with pytest.raises(HistoryIntegrityError):
            min_consistency_bound(h)

    def test_same_tick_writes_order_by_writer(self):
        # node 1's write at tick 5 follows node 0's in version order, so a
        # read answered at 5 that returns node 0's value needs budget 1
        h = History([w(0, 5, 1, node=0), w(1, 5, 2, node=1), r(2, 5, 1)])
        assert min_consistency_bound(h) == 1
        assert read_staleness(h.index("A"), 5, 5, 1) == 1

    def test_invoke_anchor_ignores_writes_after_the_read_started(self):
        h = History([w(0, 2, 1), w(1, 6, 2), r(2, 5, 1, response=8)])
        assert min_consistency_bound(h, time_ref="response") == 3
        assert min_consistency_bound(h, time_ref="invoke") == 0

    def test_value_learned_while_waiting_is_free_in_invoke_mode(self):
        h = History([w(0, 6, 2), r(1, 5, 2, response=8)])
        assert min_consistency_bound(h, time_ref="invoke") == 0
        assert min_consistency_bound(h, time_ref="response") == 0


class TestCheck:
    def test_figure_read_sequence_is_clean_at_full_budget(self):
        values = [2, 5, 2, 2, 4, 5, 4, 4, 4]
        ticks = [8, 8, 9, 9, 10, 11, 12, 13, 14]
        reads = [
            r(3 + i, t, v) for i, (t, v) in enumerate(zip(ticks, values))
        ]
        report = check(figure_history(*reads), 8, 0)
        assert report.clean
        assert report.empirical_ta == 0

    def test_stale_read_flagged_against_a_tight_budget(self):
        cfg = ScenarioConfig.from_dict(
            {
                "nodes": 2,
                "latency": 1,
                "horizon": 40,
                "partitions": [{"a": 0, "b": 1, "start": 5, "end": 30}],
                "strategy": {"kind": "LocalFirst", "G": 4},
                "workload": [
                    {"t": 2, "node": 0, "kind": "write", "key": "A", "val": 5},
                    {"t": 6, "node": 0, "kind": "write", "key": "A", "val": 9},
                    {"t": 15, "node": 1, "kind": "read", "key": "A", "val": None},
                ],
            }
        )
        history = extract_history(run_scenario(cfg))
        assert min_consistency_bound(history) == 10
        report = check(history, 3, 0)
        flagged = [v for v in report.violations if v.kind == "consistency"]
        assert len(flagged) == 1 and flagged[0].op_id == 2
        assert check(history, 10, 0).clean

    def test_instant_responses_meet_a_zero_latency_bound(self):
        h = figure_history(r(3, 8, 4))
        assert not [
            v for v in check(h, 8, 0).violations if v.kind == "availability"
        ]

    def test_slow_and_unanswered_ops_are_availability_violations(self):
        slow = r(3, 8, 4, response=13)
        hung = OperationRecord(4, "read", "A", 0, 9)
        report = check(figure_history(slow, hung), 8, 4)
        kinds = [(v.op_id, v.kind) for v in report.violations]
        assert (3, "availability") in kinds
        assert (4, "availability") in kinds
        assert math.isinf(report.empirical_ta)

    def test_never_written_value_is_an_integrity_violation(self):
        report = check(figure_history(r(3, 8, 42)), 8, 0)
        assert [v.kind for v in report.violations] == ["integrity"]

    def test_report_serialization(self):
        report = check(figure_history(r(3, 8, 4, response=13)), 8, 0)
        data = report.to_dict()
        assert data["empirical_ta"] == 5
        assert data["empirical_tc_min"] == 0
        assert data["violations"][0]["kind"] == "availability"

    def test_infinite_declared_latency_disables_availability_checks(self):
        hung = OperationRecord(3, "read", "A", 0, 9)
        report = check(figure_history(hung), 8, math.inf)
        assert [v.kind for v in report.violations] == ["availability"]


class TestValueWrittenAfterTheResponse:
    """A read returning a value whose first write comes after its response."""

    def test_check_calls_it_integrity_and_leaves_it_out_of_tc_min(self):
        report = check(History([w(0, 0, 2), w(1, 10, 7), r(2, 5, 7)]), 0, 0)
        assert [v.to_dict() for v in report.violations] == [
            {
                "op": 2,
                "kind": "integrity",
                "detail": "returned 7, written to key 'A' only after tick 5",
            }
        ]
        assert report.empirical_tc_min == 0
        # a stale read beside it still sets the bound on its own
        h = History([w(0, 0, 2), w(1, 3, 5), w(2, 10, 7), r(3, 5, 7), r(4, 8, 2)])
        report = check(h, 6, 0)
        assert [(v.op_id, v.kind) for v in report.violations] == [(3, "integrity")]
        assert report.empirical_tc_min == 6

    def test_min_consistency_bound_refuses_it(self):
        h = History([w(0, 0, 2), w(1, 10, 7), r(2, 5, 7)])
        for time_ref in ("response", "invoke"):
            with pytest.raises(HistoryIntegrityError):
                min_consistency_bound(h, time_ref=time_ref)


class TestExtractHistory:
    def test_round_trip_from_a_real_trace(self):
        cfg = ScenarioConfig.from_dict(
            {
                "nodes": 2,
                "latency": 1,
                "horizon": 20,
                "strategy": {"kind": "LocalFirst", "G": 4},
                "workload": [
                    {"t": 5, "node": 0, "kind": "write", "key": "A", "val": 7},
                    {"t": 6, "node": 1, "kind": "read", "key": "A", "val": None},
                ],
            }
        )
        history = extract_history(run_scenario(cfg))
        assert len(history.records) == 2
        assert history.records[1].returned == 7
        assert history.index("A").writes[0].written == 7

    def test_unanswered_marker_reflects_in_the_record(self):
        trace = Trace.from_jsonl(
            '{"t": 2, "seq": 0, "ev": "invoke", "op": 0, "node": 0, '
            '"kind": "read", "key": "A", "val": null}\n'
            '{"t": 9, "seq": 1, "ev": "unanswered", "op": 0}\n'
        )
        history = extract_history(trace)
        assert not history.records[0].answered
        assert math.isinf(empirical_availability_bound(history))

    def test_duplicate_op_id_is_an_integrity_error(self):
        line = (
            '{"t": 2, "seq": 0, "ev": "invoke", "op": 0, "node": 0, '
            '"kind": "read", "key": "A", "val": null}\n'
        )
        with pytest.raises(HistoryIntegrityError):
            extract_history(Trace.from_jsonl(line + line))

    def test_response_without_invoke_is_an_integrity_error(self):
        with pytest.raises(HistoryIntegrityError):
            extract_history(
                Trace.from_jsonl('{"t": 2, "seq": 0, "ev": "respond", "op": 0, "val": 1}\n')
            )

    def test_negative_tick_is_an_integrity_error(self):
        with pytest.raises(HistoryIntegrityError, match="before tick 0"):
            extract_history(
                Trace.from_jsonl(
                    '{"t": -1, "seq": 0, "ev": "invoke", "op": 0, "node": 0, '
                    '"kind": "read", "key": "A", "val": null}\n'
                )
            )

    def test_malformed_line_reports_its_number(self):
        good = '{"t": 1, "seq": 0, "ev": "timer", "node": 0, "timer": "x"}\n'
        with pytest.raises(TraceParseError, match="line 3"):
            Trace.from_jsonl(good + good + "{broken\n")

    def test_missing_field_reports_its_number(self):
        with pytest.raises(TraceParseError, match="line 1"):
            extract_history(
                Trace.from_jsonl('{"t": 2, "seq": 0, "ev": "invoke", "op": 0}\n')
            )

    def test_errors_name_the_file_line_past_blank_lines(self):
        invoke = (
            '{"t": 2, "seq": 0, "ev": "invoke", "op": 0, "node": 0, '
            '"kind": "scan", "key": "A", "val": null}\n'
        )
        with pytest.raises(TraceParseError, match=r'^line 3: invoke.kind must be one of "read", "write", got "scan"$'):
            extract_history("\n\n" + invoke)
        timer = '{"t": 1, "seq": 0, "ev": "timer", "node": 0, "timer": "x"}\n'
        respond = '{"t": 3, "seq": 1, "ev": "respond", "op": 0, "val": 1.5}\n'
        text = timer + " \n" + invoke.replace("scan", "read") + "\n\r\n" + respond
        with pytest.raises(TraceParseError, match=r"^line 6: respond.val must be an integer"):
            extract_history(text)


class TestBoundHolds:
    def test_zero_span_is_always_covered(self):
        report = check(figure_history(), 0, 0)
        assert bound_holds(report.empirical_tc_min, report.empirical_ta, 0)

    def test_arithmetic(self):
        report = check(figure_history(r(3, 8, 2)), 8, 0)
        assert report.empirical_tc_min == 6
        assert bound_holds(report.empirical_tc_min, report.empirical_ta, 6)
        assert not bound_holds(report.empirical_tc_min, report.empirical_ta, 7)
        assert bound_holds(report.empirical_tc_min, report.empirical_ta, 8, slack=2)

    def test_unavailability_satisfies_any_span(self):
        hung = OperationRecord(3, "read", "A", 0, 9)
        report = check(figure_history(hung), 0, 0)
        assert bound_holds(report.empirical_tc_min, report.empirical_ta, 10_000)


HISTORY_SEEDS = st.integers(min_value=0, max_value=100_000)


@given(HISTORY_SEEDS, st.sampled_from(["response", "invoke"]))
@settings(max_examples=60, deadline=None)
def test_min_bound_matches_the_exhaustive_scan(seed, time_ref):
    history = random_history(seed)
    assert min_consistency_bound(history, time_ref=time_ref) == min_tc_oracle(
        history, time_ref
    )


@given(HISTORY_SEEDS)
@settings(max_examples=60, deadline=None)
def test_min_bound_is_an_exact_threshold(seed):
    history = random_history(seed)
    bound = min_consistency_bound(history)
    at = check(history, bound, math.inf)
    assert not [v for v in at.violations if v.kind == "consistency"]
    if bound > 0:
        below = check(history, bound - 1, math.inf)
        assert [v for v in below.violations if v.kind == "consistency"]


@given(HISTORY_SEEDS)
@settings(max_examples=60, deadline=None)
def test_zero_budget_reduces_to_latest_write_at_response(seed):
    history = random_history(seed)
    report = check(history, 0, math.inf)
    flagged = {v.op_id for v in report.violations if v.kind == "consistency"}
    for read in history.reads():
        if not read.answered:
            continue
        writes = [
            w for w in history.index(read.key).writes if w.invoke_tick <= read.response_tick
        ]
        latest = writes[-1].written if writes else None
        assert (read.op_id in flagged) == (read.returned != latest)


@given(HISTORY_SEEDS, st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_latest_write_is_always_legal(seed, tc):
    history = random_history(seed)
    for read in history.reads():
        if not read.answered:
            continue
        T = read.response_tick
        writes = [x for x in history.index(read.key).writes if x.invoke_tick <= T]
        latest = writes[-1].written if writes else None
        assert latest in valid_read_values(history, read.key, T, tc)


@given(
    HISTORY_SEEDS,
    st.integers(min_value=0, max_value=110),
    st.sampled_from(["response", "invoke"]),
)
@settings(max_examples=150, deadline=None)
def test_check_flags_exactly_the_reads_the_definition_rejects(seed, tc, time_ref):
    history = random_history(seed, later_values=True)
    report = check(history, tc, math.inf, time_ref=time_ref)
    flagged = {v.op_id: v.kind for v in report.violations if v.kind != "availability"}
    answered = [read for read in history.reads() if read.answered]
    least = {
        read.op_id: read_min_tc_oracle(history, read, time_ref) for read in answered
    }
    assert flagged == {
        read.op_id: "consistency" if least[read.op_id] is not None else "integrity"
        for read in answered
        if not admits_oracle(history, read, tc, time_ref)
    }
    assert report.empirical_tc_min == max(
        (needed for needed in least.values() if needed is not None), default=0
    )
    if "integrity" in flagged.values():
        with pytest.raises(HistoryIntegrityError):
            min_consistency_bound(history, time_ref=time_ref)
    else:
        assert min_consistency_bound(history, time_ref=time_ref) == min_tc_oracle(
            history, time_ref
        )


@given(HISTORY_SEEDS, st.sampled_from(TIME_REFS), st.data())
@settings(max_examples=100, deadline=None)
def test_read_staleness_matches_the_oracle_at_any_response(seed, time_ref, data):
    # a frontier row re-scores a read at a deadline's tick and value, so each
    # read is also tried at a response tick and a value it did not have
    history = random_history(seed, later_values=True)
    for read in history.reads():
        if not read.answered:
            continue
        index = history.index(read.key)
        value = data.draw(st.sampled_from([None, -1, *index.positions]))  # -1 is never written
        tick = read.invoke_tick + data.draw(st.integers(0, 20))
        moved = OperationRecord(read.op_id, "read", read.key, read.node, read.invoke_tick, tick,
                                returned=value, answered=True)
        for r in (read, moved):
            anchor = r.invoke_tick if time_ref == "invoke" else r.response_tick
            assert read_staleness(index, anchor, r.response_tick, r.returned) == (
                read_min_tc_oracle(history, r, time_ref)
            )
