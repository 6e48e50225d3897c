"""Monitor engine: verdict formula, counters, opacity, and JSONL round trips."""

import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmon import specs
from tsmon.model import decisions_of
from tsmon.monitor import (
    LogEntry,
    MonitorConfig,
    TraceEvent,
    VERDICT_DEVIATION_HIGH,
    VERDICT_DEVIATION_LOW,
    VERDICT_ILLEGAL,
    VERDICT_OK,
    VERDICT_WARMUP,
    initial_monitor,
    log_entry_to_json,
    monitor_step,
    read_trace,
    run_trace,
    trace_event_from_json,
    trace_event_to_json,
    write_log,
    write_trace,
)
from tsmon.semantics import EvalError, IllegalActionError, initial_config, step
from tsmon.simnet import SplitMix64


def r1_stream(count, first="msg"):
    """msg/ack alternation at R1, preceded by the R0 entry message."""
    events = [TraceEvent("r", "msg", "in", None, 0)]
    toggle = first
    for i in range(1, count + 1):
        if toggle == "msg":
            events.append(TraceEvent("r", "msg", "in", None, i))
            toggle = "ack"
        else:
            events.append(TraceEvent("r", "ack", "out", None, i))
            toggle = "msg"
    return events


class TestMonitorStep:
    def test_first_event_observed_ratio_is_one(self, receiver):
        conf = MonitorConfig(warmup=0)
        cfg = initial_monitor(receiver)
        cfg = monitor_step(receiver, cfg, conf, TraceEvent("r", "msg", "in", None, 0))
        assert cfg.log == ()  # R0's msg carries no ratio
        cfg = monitor_step(receiver, cfg, conf, TraceEvent("r", "ack", "out", None, 1))
        assert cfg.log[-1].observed == 1.0

    def test_hand_computed_four_event_run(self, receiver):
        conf = MonitorConfig(error_bound=0.25, warmup=0)
        result = run_trace(receiver, conf, r1_stream(4))
        assert [e.observed for e in result.log] == [1.0, 0.5, 2 / 3, 0.5]
        assert [e.verdict for e in result.log] == [
            VERDICT_DEVIATION_HIGH,
            VERDICT_OK,
            VERDICT_OK,
            VERDICT_OK,
        ]

    def test_unmonitored_action_is_opaque(self, peer):
        conf = MonitorConfig(warmup=0)
        cfg = initial_monitor(peer)
        cfg = monitor_step(peer, cfg, conf, TraceEvent("p", "vreq", "in", None, 0))
        cfg = monitor_step(peer, cfg, conf, TraceEvent("p", "vwb", "in", None, 1))
        assert cfg.state == "Pr1"
        assert cfg.n == {} and cfg.log == ()

    def test_illegal_event_leaves_monitor_unchanged(self, sender):
        conf = MonitorConfig(warmup=0)
        cfg = initial_monitor(sender)
        out = monitor_step(sender, cfg, conf, TraceEvent("s", "ack", "in", None, 0))
        assert out.state == "S0"
        assert out.n == cfg.n and out.p == cfg.p
        assert [e.verdict for e in out.log] == [VERDICT_ILLEGAL]
        assert out.log[0].mu is None and out.log[0].observed is None

    def test_direction_mismatch_is_illegal(self, receiver):
        conf = MonitorConfig(warmup=0)
        cfg = initial_monitor(receiver)
        out = monitor_step(receiver, cfg, conf, TraceEvent("r", "msg", "out", None, 0))
        assert out.state == "R0"
        assert [e.verdict for e in out.log] == [VERDICT_ILLEGAL]

    def test_wrong_decision_value_is_illegal(self, auth):
        conf = MonitorConfig(warmup=0)
        cfg = initial_monitor(auth)
        out = monitor_step(auth, cfg, conf, TraceEvent("c", "login", "in", "pending", 0))
        assert [e.verdict for e in out.log] == [VERDICT_ILLEGAL]

    def test_number_for_boolean_outcome_is_illegal(self, ask):
        result = run_trace(ask, MonitorConfig(warmup=0), [TraceEvent("p", "ask", "out", 1, 0)])
        assert [e.verdict for e in result.log] == [VERDICT_ILLEGAL]

    def test_warmup_threshold_uses_updated_count(self, receiver):
        conf = MonitorConfig(error_bound=0.25, warmup=3)
        result = run_trace(receiver, conf, r1_stream(4))
        # Updated counts are 1, 2, 3, 4; entries below 3 stay warmup.
        assert [e.verdict for e in result.log] == [
            VERDICT_WARMUP,
            VERDICT_WARMUP,
            VERDICT_OK,
            VERDICT_OK,
        ]

    def test_interval_bounds_are_closed(self, receiver):
        # Fifth monitored event is ack with observed 3/5 = mu + E exactly.
        conf = MonitorConfig(error_bound=0.1, warmup=0)
        result = run_trace(receiver, conf, r1_stream(5, first="ack"))
        entry = result.log[4]
        assert entry.observed == pytest.approx(0.6)
        assert entry.verdict == VERDICT_OK

    def test_per_action_override(self, receiver):
        conf = MonitorConfig(
            error_bound=0.25, per_action_error={("R1", "ack"): 0.75}, warmup=0
        )
        result = run_trace(receiver, conf, r1_stream(2, first="ack"))
        assert result.log[0].interval == (-0.25, 1.25)
        assert result.log[0].verdict == VERDICT_OK


class TestRunTrace:
    def test_empty_trace(self, receiver):
        result = run_trace(receiver, MonitorConfig(), [])
        assert result.state == "R0"
        assert result.log == ()

    def test_leader_retry_exhaustion_trace(self, leader):
        events = [TraceEvent("l", "vreq", "out", None, i) for i in range(5)]
        result = run_trace(leader, MonitorConfig(warmup=0), events)
        assert result.state == "L2"
        assert result.store.vars == {"acks": 0, "retries": 5}

    def test_log_length_accounting(self, receiver):
        events = r1_stream(6) + [TraceEvent("r", "nak", "in", None, 99)]
        result = run_trace(receiver, MonitorConfig(warmup=0), events)
        monitorable = 6  # the R0 msg carries no ratio
        assert len(result.log) == monitorable + 1

    def test_counter_coupling(self, receiver, peer):
        rng = SplitMix64(11)
        for spec, actions in ((receiver, ["msg", "ack"]), (peer, ["vreq", "vack", "vwb"])):
            events = []
            for i in range(200):
                name = actions[rng.randrange(len(actions))]
                direction = "out" if name in ("ack", "vack") else "in"
                events.append(TraceEvent("x", name, direction, None, i))
            result = run_trace(spec, MonitorConfig(), events)
            for state, total in result.n.items():
                by_action = sum(
                    count for (s, _a), count in result.p.items() if s == state
                )
                assert by_action == total

    def test_monitor_agrees_with_semantics(self, leader):
        from tsmon.semantics import initial_config

        actions = ["vreq", "vack", "vreq", "vack", "vwb", "vreq"]
        events = [
            TraceEvent("l", a, "in" if a == "vack" else "out", None, i)
            for i, a in enumerate(actions)
        ]
        result = run_trace(leader, MonitorConfig(), events)
        cfg = initial_config(leader)
        for ev in events:
            cfg = step(leader, cfg, ev.action).next
        assert (result.state, dict(result.store.vars)) == (cfg.state, dict(cfg.store.vars))

    def test_epsilon_opacity_under_deletion(self, peer):
        rng = SplitMix64(23)
        actions = ["vreq", "vack", "vwb"]
        events = [TraceEvent("p", "vreq", "in", None, 0)]
        for i in range(1, 300):
            name = actions[rng.randrange(3)]
            events.append(
                TraceEvent("p", name, "out" if name == "vack" else "in", None, i)
            )
        conf = MonitorConfig()
        full = run_trace(peer, conf, events)
        filtered = run_trace(peer, conf, [e for e in events if e.action != "vwb"])
        assert full.log == filtered.log

    def test_convergence_at_declared_ratio(self, receiver):
        # i.i.d. msg/ack at probability 0.5 each: after the first 50 events
        # the deviation fraction at E=0.1 stays small across fixed seeds.
        deviations = 0
        total = 0
        for seed in range(1, 11):
            rng = SplitMix64(seed)
            events = [TraceEvent("r", "msg", "in", None, 0)]
            for i in range(1, 501):
                if rng.bit():
                    events.append(TraceEvent("r", "msg", "in", None, i))
                else:
                    events.append(TraceEvent("r", "ack", "out", None, i))
            result = run_trace(receiver, MonitorConfig(error_bound=0.1, warmup=0), events)
            tail = result.log[50:]
            total += len(tail)
            deviations += sum(
                e.verdict in (VERDICT_DEVIATION_LOW, VERDICT_DEVIATION_HIGH)
                for e in tail
            )
        assert deviations / total < 0.05

    def test_observed_ratio_stays_in_half_open_unit_interval(self, receiver):
        result = run_trace(receiver, MonitorConfig(warmup=0), r1_stream(50))
        assert all(0.0 < e.observed <= 1.0 for e in result.log)


@st.composite
def _walk(draw, spec):
    """Events of a random walk through ``spec``, with wrong-direction,
    unknown-action and bad-value events mixed in."""
    cfg = initial_config(spec)
    events = []
    for seq in range(draw(st.integers(0, 40))):
        body = spec.typestate.states.get(cfg.state)
        offered = []
        if body is not None:
            offered += [(br.action.name, "in") for br in body.in_branches]
            offered += [(br.action.name, "out") for br in body.out_branches]
        kind = draw(st.sampled_from(["legal"] * 6 + ["direction", "unknown", "value"]))
        if not offered or kind == "unknown":
            events.append(TraceEvent("x", "nope", "in", None, seq))
            continue
        action, direction = draw(st.sampled_from(offered))
        values = sorted(decisions_of(spec.typestate, cfg.state, action), key=repr)
        value = draw(st.sampled_from(values))
        if kind == "direction":
            direction = "out" if direction == "in" else "in"
        elif kind == "value":
            value = "bogus"
        events.append(TraceEvent("x", action, direction, value, seq))
        if kind == "legal":
            try:
                cfg = step(spec, cfg, action, value).next
            except (IllegalActionError, EvalError):
                pass
    return events


class TestFold:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_run_trace_equals_step_fold(self, data):
        spec = specs.load(data.draw(st.sampled_from(specs.BUNDLED)))
        events = data.draw(_walk(spec))
        k = data.draw(st.integers(0, len(events)))
        conf = MonitorConfig(error_bound=0.2, warmup=2)
        whole = run_trace(spec, conf, events)
        cfg = initial_monitor(spec)
        for ev in events:
            cfg = monitor_step(spec, cfg, conf, ev)
        assert cfg == whole
        prefix = run_trace(spec, conf, events[:k])
        cfg = prefix
        for ev in events[k:]:
            cfg = monitor_step(spec, cfg, conf, ev)
        assert cfg == whole
        # monitor_step left the configurations it was given unchanged.
        assert prefix == run_trace(spec, conf, events[:k])


class TestJsonl:
    def test_trace_event_round_trip(self):
        for ev in (
            TraceEvent("p", "login", "in", "success", 3),
            TraceEvent("p", "ask", "out", True, 4),
            TraceEvent("p", "msg", "in", None, 5),
        ):
            assert trace_event_from_json(trace_event_to_json(ev)) == ev

    def test_trace_file_round_trip(self, tmp_path):
        events = r1_stream(4)
        path = tmp_path / "trace.jsonl"
        write_trace(path, events)
        assert read_trace(path) == events
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "participant": "r",
            "action": "msg",
            "dir": "in",
            "value": None,
            "seq": 0,
        }

    def test_log_schema(self, receiver):
        result = run_trace(receiver, MonitorConfig(error_bound=0.25, warmup=0), r1_stream(2))
        out = io.StringIO()
        write_log(out, result.log)
        first = json.loads(out.getvalue().splitlines()[0])
        assert set(first) == {
            "state",
            "action",
            "mu",
            "interval",
            "observed",
            "verdict",
            "event_index",
        }
        assert first["interval"] == [0.25, 0.75]


# Strings that JSON escapes, and '%', which the writers' format strings escape.
_TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7f%é \U0001d11e '), max_size=5)
_WORD = st.sampled_from(["r", "msg", "R1"]) | _TEXT
_SEQS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70), st.booleans())
# Groups of values that compare equal but are written differently: a cache
# keyed on one of them must not serve another.
_NUMBERS = st.sampled_from(
    [(0.0, -0.0, 0, False), (1.0, 1, True), (0.5,), (5e-324,), (0.1 + 0.2,), (-1e300,),
     (math.inf,), (math.nan,)]
)
_VALUES = st.sampled_from([(None,), (True, 1, 1.0), (False, 0, -0.0), ("yes",), ('"%\\é',)])


def _reference_lines(to_json, items):
    return "".join(json.dumps(to_json(x)) + "\n" for x in items)


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every error must match
        return type(exc), str(exc)


@st.composite
def _events(draw):
    """Events over a few (participant, action, dir, value group) shapes, each
    event taking any member of its shape's value group."""
    shapes = draw(st.lists(st.tuples(_WORD, _WORD, st.sampled_from(["in", "out"]) | _TEXT, _VALUES),
                           min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(0, 16))):
        participant, action, direction, values = draw(st.sampled_from(shapes))
        events.append(
            TraceEvent(participant, action, direction, draw(st.sampled_from(values)), draw(_SEQS))
        )
    return events


@st.composite
def _log(draw):
    """Log entries over a few shapes whose numbers are groups of _NUMBERS,
    each entry taking any member of each group."""
    group = st.none() | _NUMBERS
    shapes = draw(st.lists(st.tuples(_WORD, _WORD, group, st.none() | st.tuples(_NUMBERS, _NUMBERS),
                                     _WORD), min_size=1, max_size=3))
    pick = lambda g: None if g is None else draw(st.sampled_from(g))  # noqa: E731
    log = []
    for _ in range(draw(st.integers(0, 16))):
        state, action, mu, interval, verdict = draw(st.sampled_from(shapes))
        if interval is not None:
            interval = (pick(interval[0]), pick(interval[1]))
        observed = draw(st.none() | _NUMBERS.map(lambda g: g[0]) | st.floats())
        log.append(LogEntry(state, action, pick(mu), interval, observed, verdict, draw(_SEQS)))
    return log


def _reference_read(text):
    """``read_trace`` as one ``json.loads`` per line, without the line cache."""
    events = [
        trace_event_from_json(json.loads(line)) for line in text.split("\n") if line.strip()
    ]
    participants = {ev.participant for ev in events}
    if len(participants) > 1:
        raise ValueError(f"events of several participants: {sorted(participants)}")
    return events


# Tails after ``, "seq": `` that are not a plain JSON integer and a brace, or
# that are one in an unusual spelling.
_SEQ_TAILS = [
    "01}", "-0}", " 1}", "1 }", "1.0}", "1e3}", "٣}", "1٣}", "true}", "1}}", "-}", "7}", "-12}"
]
# Ways to reshape a canonical line, given its head (all before ``, "seq": ``).
_LINE_EDITS = {
    "tail": lambda head, seq, tail: f'{head}, "seq": {tail}',
    "trailing-space": lambda head, seq, tail: f'{head}, "seq": {seq}}}  ',
    "crlf": lambda head, seq, tail: f'{head}, "seq": {seq}}}\r',
    "blank-before": lambda head, seq, tail: f' \n{head}, "seq": {seq}}}',
    "duplicate-seq": lambda head, seq, tail: f'{{"seq": "x", {head[1:]}, "seq": {seq}}}',
    "seq-first": lambda head, seq, tail: f'{{"seq": {seq}, {head[1:]}}}',
}


@st.composite
def _trace_text(draw):
    """Canonical lines over a few line heads, many of them edited."""
    participant = draw(st.sampled_from(["r", "s"]) | _TEXT)
    shapes = draw(st.lists(st.tuples(_WORD, st.sampled_from(["in", "out", "up"]),
                                     _VALUES.flatmap(st.sampled_from) | st.just([1])),
                           min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        action, direction, value = draw(st.sampled_from(shapes))
        seq = draw(st.integers(-3, 3) | st.integers(-(2**70), 2**70))
        ev = TraceEvent(participant, action, direction, value, seq)
        line = json.dumps(trace_event_to_json(ev))
        edit = draw(st.sampled_from([None] * 3 + sorted(_LINE_EDITS) + ["tail"] * 3))
        if edit is not None:
            head = line.rpartition(', "seq": ')[0]
            line = _LINE_EDITS[edit](head, seq, draw(st.sampled_from(_SEQ_TAILS)))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestCodecs:
    """The writers and the reader cache what lines share; each must give
    exactly what one ``json.dumps`` or ``json.loads`` per line gives."""

    @settings(max_examples=300, deadline=None)
    @given(_events())
    def test_write_trace_equals_json_dumps(self, events):
        out = io.StringIO()
        write_trace(out, events)
        assert out.getvalue() == _reference_lines(trace_event_to_json, events)

    @settings(max_examples=300, deadline=None)
    @given(_log())
    def test_write_log_equals_json_dumps(self, log):
        out = io.StringIO()
        write_log(out, log)
        assert out.getvalue() == _reference_lines(log_entry_to_json, log)

    @pytest.mark.parametrize(
        "field, twins",
        [("mu", (0.0, -0.0)), ("mu", (1.0, 1, True)), ("interval", ((-0.0, 0.5), (0.0, 0.5))),
         ("interval", ((0.5, 1.0), (0.5, 1))), ("observed", (0.5, math.inf, math.nan)),
         ("event_index", (1, True)), ("state", ("R1", 1))],
    )
    def test_write_log_keeps_equal_values_apart(self, field, twins):
        base = LogEntry("R1", "ack", 0.5, (0.25, 0.75), 0.5, VERDICT_OK, 1)
        log = [dataclasses.replace(base, **{field: twin}) for twin in twins + twins[::-1]]
        out = io.StringIO()
        write_log(out, log)
        assert out.getvalue() == _reference_lines(log_entry_to_json, log)

    @pytest.mark.parametrize(
        "field, twins",
        [("value", (True, 1, 1.0)), ("value", (False, 0, -0.0, None)), ("seq", (1, True)),
         ("participant", ("r", 1))],
    )
    def test_write_trace_keeps_equal_values_apart(self, field, twins):
        base = TraceEvent("r", "msg", "in", True, 1)
        events = [dataclasses.replace(base, **{field: twin}) for twin in twins + twins[::-1]]
        out = io.StringIO()
        write_trace(out, events)
        assert out.getvalue() == _reference_lines(trace_event_to_json, events)

    @settings(max_examples=500, deadline=None)
    @given(_trace_text())
    def test_read_trace_equals_per_line_json_loads(self, text):
        assert _outcome(read_trace, io.StringIO(text)) == _outcome(_reference_read, text)

    @pytest.mark.parametrize("tail", _SEQ_TAILS)
    def test_known_head_with_another_tail(self, tail):
        head = '{"participant": "r", "action": "msg", "dir": "in", "value": null'
        text = f'{head}, "seq": 0}}\n{head}, "seq": {tail}\n'
        assert _outcome(read_trace, io.StringIO(text)) == _outcome(_reference_read, text)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_only_a_newline_ends_a_line(self, separator):
        head = '{"participant": "r", "action": "m%sg", "dir": "in", "value": null' % separator
        text = f'{head}, "seq": 0}}\n{head}, "seq": 1}}\n'
        assert [(ev.action, ev.seq) for ev in read_trace(io.StringIO(text))] == [
            (f"m{separator}g", 0), (f"m{separator}g", 1)
        ]

    def test_known_head_takes_each_seq(self):
        text = "".join(
            f'{{"participant": "r", "action": "msg", "dir": "in", "value": null, "seq": {seq}}}\n'
            for seq in ("0", "-0", "7", str(2**80), str(10**150))
        )
        assert [ev.seq for ev in read_trace(io.StringIO(text))] == [0, 0, 7, 2**80, 10**150]

class TestMonitorConfig:
    @pytest.mark.parametrize("bound", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_bound(self, bound):
        with pytest.raises(ValueError):
            MonitorConfig(error_bound=bound)
        with pytest.raises(ValueError):
            MonitorConfig(per_action_error={("R1", "ack"): bound})

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            MonitorConfig(warmup=-1)
