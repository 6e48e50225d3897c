"""Monitor engine: verdict formula, counters, opacity, and JSONL round trips."""

import gc
import io
from collections import Counter
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmon import specs
from tsmon.dsl import parse_protocol
from tsmon.model import ActionSignature, Branch, PlainDest, ProtocolSpec, StateBody, Typestate, _outcomes
from tsmon.monitor import (
    LogEntry,
    LogLines,
    MTInfo,
    Monitor,
    MonitorConfig,
    TraceEvent,
    VERDICT_DEVIATION_HIGH,
    VERDICT_DEVIATION_LOW,
    VERDICT_ILLEGAL,
    VERDICT_OK,
    VERDICT_WARMUP,
    _write_heads,
    iter_trace,
    log_entry_to_json,
    read_trace,
    run_trace,
    trace_event_from_json,
    trace_event_to_json,
    write_log,
    write_trace,
)
from tsmon.semantics import (
    EvalError, IllegalActionError, Transitions, fire, initial_config, scope_of, step, store_of
)
from tsmon.simnet import AbpConfig, NetConfig, SplitMix64, run_abp

from growth import assert_grows_linearly
from specgen import chain_spec, wide_spec


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
        m = Monitor(receiver, MonitorConfig(warmup=0))
        assert m.feed([TraceEvent("r", "msg", "in", None, 0)]) == []  # R0's msg carries no ratio
        entries = m.feed([TraceEvent("r", "ack", "out", None, 1)])
        assert [e.observed for e in entries] == [1.0]

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
        m = Monitor(peer, MonitorConfig(warmup=0))
        first = m.feed([TraceEvent("p", "vreq", "in", None, 0)])
        second = m.feed([TraceEvent("p", "vwb", "in", None, 1)])
        cfg = m.config()
        assert cfg.state == "Pr1"
        assert cfg.n == {} and first == second == []

    def test_illegal_event_leaves_monitor_unchanged(self, sender):
        m = Monitor(sender, MonitorConfig(warmup=0))
        before = m.config()
        entries = m.feed([TraceEvent("s", "ack", "in", None, 0)])
        assert m.config() == before and before.state == "S0"
        assert [e.verdict for e in entries] == [VERDICT_ILLEGAL]
        assert entries[0].mu is None and entries[0].observed is None

    def test_illegal_event_after_counting_leaves_monitor_unchanged(self, receiver):
        m = Monitor(receiver, MonitorConfig(warmup=0))
        m.feed(r1_stream(3))
        before = m.config()
        assert before.n == {"R1": 3}
        entries = m.feed([TraceEvent("r", "ack", "in", None, 4)])  # ack is an output
        assert [e.verdict for e in entries] == [VERDICT_ILLEGAL]
        assert m.config() == before

    def test_direction_mismatch_is_illegal(self, receiver):
        m = Monitor(receiver, MonitorConfig(warmup=0))
        entries = m.feed([TraceEvent("r", "msg", "out", None, 0)])
        assert m.config().state == "R0"
        assert [e.verdict for e in entries] == [VERDICT_ILLEGAL]

    def test_wrong_decision_value_is_illegal(self, auth):
        m = Monitor(auth, MonitorConfig(warmup=0))
        entries = m.feed([TraceEvent("c", "login", "in", "pending", 0)])
        assert [e.verdict for e in entries] == [VERDICT_ILLEGAL]

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


class TestIntervals:
    """One interval per (state, action), made once and shared by its entries."""

    def test_entries_of_a_pair_share_one_interval(self, receiver):
        conf = MonitorConfig(error_bound=0.1, warmup=0)
        shared = {}
        for e in run_trace(receiver, conf, r1_stream(40)).log:
            assert e.interval is shared.setdefault((e.state, e.action), e.interval)
            assert e.interval == (e.mu - 0.1, e.mu + 0.1)
        assert sorted(shared) == [("R1", "ack"), ("R1", "msg")]


class TestRunTrace:
    def test_empty_trace(self, receiver):
        result = run_trace(receiver, MonitorConfig(), [])
        assert result.final.state == "R0"
        assert result.log == ()

    def test_leader_retry_exhaustion_trace(self, leader):
        events = [TraceEvent("l", "vreq", "out", None, i) for i in range(5)]
        result = run_trace(leader, MonitorConfig(warmup=0), events)
        assert result.final.state == "L2"
        assert result.final.store.vars == {"acks": 0, "retries": 5}

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
            for state, total in result.final.n.items():
                by_action = sum(
                    count for (s, _a), count in result.final.p.items() if s == state
                )
                assert by_action == total

    def test_monitor_agrees_with_semantics(self, leader):
        from tsmon.semantics import initial_config

        actions = ["vreq", "vack", "vreq", "vack", "vwb", "vreq"]
        events = [
            TraceEvent("l", a, "in" if a == "vack" else "out", None, i)
            for i, a in enumerate(actions)
        ]
        final = run_trace(leader, MonitorConfig(), events).final
        cfg = initial_config(leader)
        for ev in events:
            cfg = step(leader, cfg, ev.action).next
        assert (final.state, dict(final.store.vars)) == (cfg.state, dict(cfg.store.vars))

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
            offered += [(br, "in") for br in body.in_branches]
            offered += [(br, "out") for br in body.out_branches]
        kind = draw(st.sampled_from(["legal"] * 6 + ["direction", "unknown", "value"]))
        if not offered or kind == "unknown":
            events.append(TraceEvent("x", "nope", "in", None, seq))
            continue
        br, direction = draw(st.sampled_from(offered))
        action = br.action.name
        values = sorted(_outcomes(br), key=repr)
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


def _fold(monitor, events):
    """Feed ``events`` to ``monitor`` one at a time: the entries of all
    feeds, in order."""
    log = []
    for ev in events:
        entries = monitor.feed((ev,))
        assert type(entries) is list and len(entries) <= 1
        log += entries
    return tuple(log)


class _FireEach:
    """The monitor with no step cache: :func:`fire` runs for every event,
    and the verdict rule is written out again."""

    def __init__(self, spec, conf):
        cfg = initial_config(spec)
        self.conf, self.state, self.store = conf, cfg.state, cfg.store
        self.scope = scope_of(cfg.store)
        self.table = Transitions(spec, cfg.store.vars)
        self.n, self.p, self.log = {}, {}, []

    def feed(self, ev):
        _, action, direction, value, seq = ev
        state, t = self.state, self.table[self.state, action]
        try:
            target, scope, _ = fire(t, state, action, value, self.scope)
        except (IllegalActionError, EvalError):
            t = None
        if t is None or direction != ("in" if t.is_input else "out"):
            self.log.append(LogEntry(state, action, None, None, None, VERDICT_ILLEGAL, seq))
            return
        mu = t.branch.ratio
        if mu is not None:
            n, p = self.n.get(state, 0), self.p.get((state, action), 0)
            observed, bound = (p + 1) / (n + 1), self.conf.error_bound
            low, high = mu - bound, mu + bound
            verdict = (VERDICT_WARMUP if n + 1 < self.conf.warmup else VERDICT_DEVIATION_LOW
                       if observed < low else VERDICT_DEVIATION_HIGH if observed > high else VERDICT_OK)
            self.log.append(LogEntry(state, action, mu, (low, high), observed, verdict, seq))
            self.n[state], self.p[state, action] = n + 1, p + 1
        self.state, self.scope = target, scope

    def config(self):
        return MTInfo(self.state, store_of(self.scope, self.store), dict(self.n), dict(self.p))


# The bundled specs (the leader's transitions have effects, auth's login is a
# decision) and a boolean decision, for which 1 and 0 are no outcome.
_SPECS = [specs.load(name) for name in specs.BUNDLED] + [parse_protocol(
    "state S0 = !{ boolean ask() : <true: S1, false: S0> }\n"
    "state S1 = ?{ unit done() : S0 }\n"
)]
_EVENT_VALUES = (None, True, False, 1, 0, "x", [])


@st.composite
def _noisy_walk(draw, spec):
    """Events of a walk that mostly follows ``spec``, with every kind of
    value, both directions and undeclared actions mixed in."""
    walker, events = _FireEach(spec, MonitorConfig()), []
    actions = sorted({br.action.name for body in spec.typestate.states.values()
                      for br in (*body.in_branches, *body.out_branches)})
    for seq in range(draw(st.integers(0, 60))):
        body = spec.typestate.states.get(walker.state)
        offered = [] if body is None else [
            (br, direction) for direction, branches in (("in", body.in_branches), ("out", body.out_branches))
            for br in branches
        ]
        if offered and draw(st.integers(0, 3)):
            branch, direction = draw(st.sampled_from(offered))
            action = branch.action.name
            outcomes = [None] if isinstance(branch.dest, PlainDest) else [o for o, _ in branch.dest.cases]
            value = draw(st.sampled_from([*outcomes, *_EVENT_VALUES]))
            direction = draw(st.sampled_from([direction, direction, "out" if direction == "in" else "in"]))
        else:
            action = draw(st.sampled_from([*actions, "nope"]))
            direction = draw(st.sampled_from(["in", "out"]))
            value = draw(st.sampled_from(_EVENT_VALUES))
        events.append(TraceEvent("x", action, direction, value, seq))
        walker.feed(events[-1])
    return events


class TestStepCache:
    """Monitor.feed takes a known plain transition without fire, for an event
    with no value; nothing else may change."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_feed_equals_fire_for_every_event(self, data):
        spec = data.draw(st.sampled_from(_SPECS))
        events = data.draw(_noisy_walk(spec))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=4)))
        conf = MonitorConfig(error_bound=0.2, warmup=2)
        reference = _FireEach(spec, conf)
        for ev in events:
            reference.feed(ev)
        m, log = Monitor(spec, conf), []
        for start, end in zip([0, *cuts], [*cuts, len(events)]):
            log += m.feed(events[start:end])
        assert log == reference.log
        assert m.config() == reference.config()


class TestFold:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_run_trace_equals_step_fold(self, data):
        spec = specs.load(data.draw(st.sampled_from(specs.BUNDLED)))
        events = data.draw(_walk(spec))
        k = data.draw(st.integers(0, len(events)))
        conf = MonitorConfig(error_bound=0.2, warmup=2)
        whole = run_trace(spec, conf, events)
        m = Monitor(spec, conf)
        start = m.config()
        assert (_fold(m, events), m.config()) == (whole.log, whole.final)
        # Two feeds of one monitor, split anywhere, give the log of one.
        m = Monitor(spec, conf)
        head = m.feed(events[:k])
        middle = m.config()
        assert tuple(head + m.feed(events[k:])) == whole.log
        assert m.config() == whole.final
        # A snapshot is not changed by later feeds.
        assert start == Monitor(spec, conf).config()
        assert middle == run_trace(spec, conf, events[:k]).final

    def test_fold_grows_linearly(self, receiver):
        # Each feed costs the same however many came before it: eight times
        # the events take about eight times as long, and a feed that copied
        # the log so far would take about 30 times as long.
        run = run_abp(AbpConfig(net=NetConfig(seed=5, drop_prob=0.2, dup_prob=0.1),
                                rounds=6000, ack_prob=0.7))
        events = run.traces["receiver"]
        assert len(events) >= 16_000
        conf = MonitorConfig(error_bound=0.05, warmup=20)

        def prepare(count):
            head = events[:count]
            return lambda: _fold(Monitor(receiver, conf), head)

        assert_grows_linearly(prepare, 2_000)

    def test_feed_grows_linearly_in_a_states_actions(self):
        # One event for each action of one state: each pair is compiled once,
        # after a lookup that does not scan the state's branches.  Each call
        # gets a new typestate, so it also fills the index of Typestate.find.
        def prepare(n_actions):
            states = wide_spec(n_actions).typestate.states
            events = [TraceEvent("w", f"a{i}", "in", None, i) for i in range(n_actions)]
            return lambda: Monitor(ProtocolSpec(Typestate(states)), MonitorConfig()).feed(events)

        assert prepare(3)() == []  # legal and unmonitored: no entry
        assert_grows_linearly(prepare, 1_000)

    def test_feed_grows_linearly_along_a_chain(self):
        # A walk to the end of a chain and back meets two pairs per state:
        # each is compiled once, and the plain one adds one cached step.  The
        # compiled closures pile up, and with the cyclic collector on, its
        # passes over them take 13-14 times as long at 8N; the call runs with
        # the collector paused, as the CLI runs it, which measures the monitor.
        def prepare(n_states):
            spec = chain_spec(n_states)
            events = [TraceEvent("c", "fwd", "in", None, i) for i in range(n_states - 1)]
            events += [TraceEvent("c", "back", "out", None, i) for i in range(n_states - 1, 2 * n_states - 2)]

            def walk():
                gc.disable()
                try:
                    return Monitor(spec, MonitorConfig(warmup=0)).feed(events)
                finally:
                    gc.enable()

            return walk

        log = prepare(3)()
        assert [(e.state, e.verdict) for e in log] == [("C2", VERDICT_OK), ("C1", VERDICT_OK)]
        assert_grows_linearly(prepare, 500)

    def test_events_that_raise_keep_what_was_consumed(self, receiver):
        events = r1_stream(6)
        conf = MonitorConfig(warmup=0)

        def failing():
            yield from events[:4]
            raise ValueError("malformed line")

        m = Monitor(receiver, conf)
        with pytest.raises(ValueError):
            m.feed(failing())
        assert m.config() == run_trace(receiver, conf, events[:4]).final
        rest = m.feed(events[4:])
        assert rest == list(run_trace(receiver, conf, events).log[3:])
        assert m.config() == run_trace(receiver, conf, events).final


class TestVerdictEntries:
    def test_entries_are_log_entries(self, receiver):
        log = run_trace(receiver, MonitorConfig(warmup=2), r1_stream(20)).log
        assert log and {type(e) for e in log} == {LogEntry}

    def test_unit_action_with_a_value_is_illegal(self, receiver):
        for value in (True, False, 1, 0, "msg", []):
            log = run_trace(receiver, MonitorConfig(), [TraceEvent("r", "msg", "in", value, 0)]).log
            assert [e.verdict for e in log] == [VERDICT_ILLEGAL]
            # Also where msg is a known step: R1 has met it once.
            log = run_trace(receiver, MonitorConfig(), [*r1_stream(2), TraceEvent("r", "msg", "in", value, 3)]).log
            assert log[-1].verdict == VERDICT_ILLEGAL


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

    def test_a_repeated_head_is_parsed_once(self, monkeypatch):
        loads, calls = json.loads, []

        def counting_loads(*args, **kwargs):
            calls.append(args[0])
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        events = r1_stream(999)  # two heads: msg in and ack out
        text = io.StringIO()
        write_trace(text, events)
        assert read_trace(io.StringIO(text.getvalue())) == events
        assert len(calls) == 2
        # A line with a known head but a tail that is not a seq is parsed in full.
        calls.clear()
        head = text.getvalue().splitlines()[0].rpartition(', "seq": ')[0]
        with pytest.raises(ValueError):
            read_trace(io.StringIO(f'{head}, "seq": 0}}\n{head}, "seq": 01}}\n'))
        assert len(calls) == 2

    def test_iter_trace_yields_no_event_after_a_second_participant(self):
        first, later = r1_stream(20), r1_stream(20)
        text = io.StringIO()
        write_trace(text, [*first, TraceEvent("s", "msg", "out", None, 21), *later])
        seen = []
        with pytest.raises(ValueError, match=r"events of several participants: \['r', 's'\]"):
            for ev in iter_trace(io.StringIO(text.getvalue())):
                seen.append(ev)
        assert seen == first

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
    @given(_events())
    def test_write_heads_equals_json_dumps(self, events):
        # A simulated trace is written from the heads of its events, each
        # event's seq being its index; a head holds a valid event's value.
        heads = [ev[:4] for ev in events if type(ev.value) in (type(None), bool, str)]
        out = io.StringIO()
        _write_heads(out, heads)
        events = [TraceEvent(*head, i) for i, head in enumerate(heads)]
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
        log = [base._replace(**{field: twin}) for twin in twins + twins[::-1]]
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
        events = [base._replace(**{field: twin}) for twin in twins + twins[::-1]]
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


def _receiver_log(count):
    spec = specs.load("receiver")
    return run_trace(spec, MonitorConfig(error_bound=0.05, warmup=20), r1_stream(count)).log


def _traced(fn, *args):
    """``fn(*args)``, the memory traced at its peak during the call, and the
    memory still allocated when it returned (both above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, held - start


class TestStreaming:
    """The writers hand the file a chunk of lines at a time and the reader
    takes it line by line: neither holds the whole text."""

    @pytest.mark.parametrize("write, records", [(write_log, _receiver_log), (write_trace, r1_stream)])
    def test_writer_peak_does_not_grow_with_the_records(self, tmp_path, write, records):
        # The transient is one chunk of lines, its joined text and its
        # encoded bytes: about 0.13 MB for 256 log lines, 0.95 MB for 2,048.
        for count in (10_000, 80_000):
            items = records(count)
            _, peak, held = _traced(write, tmp_path / "out.jsonl", items)
            assert peak - held < 400_000, (count, peak, held)

    def test_read_trace_grows_linearly_in_events(self, tmp_path):
        def prepare(count):
            path = tmp_path / f"trace{count}.jsonl"
            write_trace(path, r1_stream(count))
            return lambda: read_trace(path)

        assert_grows_linearly(prepare, 4_000)

    def test_write_log_grows_linearly_in_entries(self, tmp_path):
        def prepare(count):
            log, path = _receiver_log(count), tmp_path / f"log{count}.jsonl"
            return lambda: write_log(path, log)

        assert_grows_linearly(prepare, 4_000)

    def test_reader_peak_stays_near_what_its_events_hold(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, r1_stream(80_000))
        events, peak, held = _traced(read_trace, path)
        assert len(events) == 80_001
        assert peak < 1.25 * held, (peak, held)

    @pytest.mark.parametrize(
        "write, to_json, records, bad",
        [(write_trace, trace_event_to_json, r1_stream, TraceEvent("r", "msg", "in", object(), 1)),
         (write_log, log_entry_to_json, _receiver_log,
          LogEntry("R1", "ack", 0.5, (0.45, 0.55), object(), VERDICT_OK, 1))],
        ids=["trace", "log"],
    )
    def test_unencodable_record_raises_what_json_dumps_raises(self, tmp_path, write, to_json, records, bad):
        good = records(3_000)  # more than one chunk
        items = [*good, bad]
        expected = _outcome(_reference_lines, to_json, items)
        assert expected[0] is TypeError
        assert _outcome(write, io.StringIO(), items) == expected
        path = tmp_path / "out.jsonl"
        assert _outcome(write, path, items) == expected
        # The chunks written before the error stay: whole lines, before the bad record's.
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert _reference_lines(to_json, good).startswith(text)


# Lines that edit a trace: blank, malformed, or a line of the walk's trace
# ``line`` with a ``seq`` tail spelt otherwise or of another participant.
_BLANK = ["", "   ", "\t"]
_MALFORMED = ["{", "[1]", "null", '{"participant": "x"}', '{"participant": "x", "action": "a", "dir": "in", "seq": 1']
_RETAIL = ["-0}", "9" * 100 + "}", "9" * 101 + "}", *_SEQ_TAILS]


@st.composite
def _edited_trace(draw, spec):
    """The lines of a walk through ``spec`` (participant ``x``, with values,
    undeclared actions and wrong directions), each with its newline, and
    edits at any position: blank and malformed lines, lines of a second
    participant, before or after their heads are met, and other ``seq``
    tails, some holding another line's fields."""
    out = io.StringIO()
    write_trace(out, draw(_walk(spec)))
    lines = out.getvalue().splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["blank", "malformed", "tail", "participant", "override"]))
        if kind == "blank":
            line = draw(st.sampled_from(_BLANK)) + "\n"
        elif kind == "malformed":
            line = draw(st.sampled_from(_MALFORMED)) + "\n"
        elif not lines:
            continue
        else:
            head = draw(st.sampled_from(lines)).rpartition(', "seq": ')[0]
            if kind == "participant":
                head = head.replace('"participant": "x"', '"participant": "y"')
            tail = draw(st.sampled_from(_RETAIL)) if kind == "tail" else f"{at}}}"
            if kind == "override":  # a tail whose fields replace the head's
                fields = draw(st.sampled_from(lines)).rpartition(', "seq": ')[0][1:]
                tail = f"{at}, {fields}}}"
            line = f'{head}, "seq": {tail}\n'
        lines.insert(at, line)
    return "".join(lines)


def _until_error(items):
    """The items of ``items`` up to its first ValueError, and that error's
    type and message, or None."""
    got = []
    try:
        for item in items:
            got.append(item)
    except ValueError as exc:
        return got, (type(exc), str(exc))
    return got, None


class TestLogLines:
    """The line path of ``tsmon monitor``: the log lines :class:`LogLines`
    makes of a trace are what ``write_log(feed(iter_trace(...)))`` writes,
    error for error."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_write_log_of_feed_of_iter_trace(self, data):
        spec = specs.load(data.draw(st.sampled_from(["receiver", "leader", "peer", "sender"])))
        text = data.draw(_edited_trace(spec))
        conf = MonitorConfig(error_bound=0.2, warmup=data.draw(st.sampled_from([0, 2, 10])))
        events, error = _until_error(iter_trace(io.StringIO(text)))
        reference, expected = Monitor(spec, conf), io.StringIO()
        entries = reference.feed(events)
        write_log(expected, entries)
        monitor = Monitor(spec, conf)
        log = LogLines(monitor, io.StringIO(text))
        lines, line_error = _until_error(log)
        assert "".join(lines) == expected.getvalue()
        assert line_error == error
        if error is None:
            assert (log.events, log.verdicts) == (len(events), Counter(e.verdict for e in entries))
            assert monitor.config() == reference.config()
        # Through write_log, the lines are written as they are, in whole lines.
        out = io.StringIO()
        assert _outcome(write_log, out, LogLines(Monitor(spec, conf), io.StringIO(text))) == error
        assert expected.getvalue().startswith(out.getvalue())
        assert error is not None or out.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("tail", ["-0}", "9" * 100 + "}", "9" * 101 + "}"])
    def test_a_seq_tail_is_read_as_the_parser_reads_it(self, tail):
        # From the second line on, a 100-digit tail at most takes the cached
        # step of the first line's head; `-0` is logged as 0.
        head = '{"participant": "r", "action": "msg", "dir": "in", "value": null'
        text = f'{head}, "seq": 5}}\n{head}, "seq": 6}}\n{head}, "seq": {tail}\n'
        spec, conf = specs.load("receiver"), MonitorConfig(warmup=0)
        expected = io.StringIO()
        write_log(expected, Monitor(spec, conf).feed(iter_trace(io.StringIO(text))))
        assert "".join(LogLines(Monitor(spec, conf), io.StringIO(text))) == expected.getvalue()
        assert expected.getvalue().endswith(f'"event_index": {int(tail[:-1])}}}\n')

    def test_a_tail_with_fields_teaches_no_step(self):
        # The second line is an ack whose fields follow seq; the third, a msg
        # with the first line's head, must not take the ack's step.
        head = '{"participant": "r", "action": "msg", "dir": "in", "value": null'
        text = f'{head}, "seq": 0}}\n{head}, "seq": 1, "action": "ack", "dir": "out"}}\n{head}, "seq": 2}}\n'
        spec, conf = specs.load("receiver"), MonitorConfig(warmup=0)
        expected = io.StringIO()
        write_log(expected, Monitor(spec, conf).feed(iter_trace(io.StringIO(text))))
        assert [json.loads(line)["action"] for line in expected.getvalue().splitlines()] == ["ack", "msg"]
        assert "".join(LogLines(Monitor(spec, conf), io.StringIO(text))) == expected.getvalue()

    def test_line_path_grows_linearly_in_events(self, receiver, tmp_path):
        conf = MonitorConfig(error_bound=0.05, warmup=20)

        def prepare(count):
            trace, log = tmp_path / f"r{count}.jsonl", tmp_path / "r.log"
            write_trace(trace, r1_stream(count))

            def run():
                with open(trace, encoding="utf-8") as lines:
                    write_log(log, LogLines(Monitor(receiver, conf), lines))

            return run

        assert_grows_linearly(prepare, 4_000)

    def test_line_path_grows_linearly_in_a_states_heads(self):
        # One monitored input action per head, in one state that each loops
        # back to; the second round of heads takes the cached steps.
        def prepare(n_actions):
            branches = tuple(
                Branch(ActionSignature(f"a{i}"), 1 / n_actions, (), (), PlainDest("W")) for i in range(n_actions)
            )
            spec = ProtocolSpec(Typestate({"W": StateBody(in_branches=branches)}))
            text = io.StringIO()
            write_trace(text, [TraceEvent("w", f"a{i % n_actions}", "in", None, i) for i in range(2 * n_actions)])
            lines = text.getvalue().splitlines(keepends=True)
            return lambda: write_log(io.StringIO(), LogLines(Monitor(spec, MonitorConfig()), lines))

        assert_grows_linearly(prepare, 500)


class TestRecords:
    """TraceEvent and LogEntry are named tuples: immutable records that equal
    a plain tuple of their fields."""

    ENTRY = ("R1", "ack", 0.5, (0.25, 0.75), 0.5, VERDICT_OK, 1)

    def test_keyword_construction_and_defaults(self):
        ev = TraceEvent(participant="r", action="msg", direction="in")
        assert (ev.value, ev.seq) == (None, 0)
        assert ev == TraceEvent("r", "msg", "in", None, 0)
        entry = LogEntry(state="R1", action="ack", mu=0.5, interval=(0.25, 0.75),
                         observed=0.5, verdict=VERDICT_OK, event_index=1)
        assert entry == LogEntry(*self.ENTRY)
        assert (entry.state, entry.interval, entry.event_index) == ("R1", (0.25, 0.75), 1)
        with pytest.raises(TypeError):
            LogEntry("R1", "ack", 0.5, (0.25, 0.75), 0.5, VERDICT_OK)

    @pytest.mark.parametrize(
        "record, name",
        [(TraceEvent("r", "msg", "in"), "seq"), (TraceEvent("r", "msg", "in"), "extra"),
         (LogEntry(*ENTRY), "verdict"), (LogEntry(*ENTRY), "extra")],
    )
    def test_assignment_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 2)

    def test_equality_and_hash_follow_the_fields(self):
        ev = TraceEvent("r", "ask", "out", True, 1)
        # As with the frozen dataclasses, fields compare with ==, so True
        # equals 1 and 1.0; the JSONL reader refuses a number for ``value``.
        for twin in (TraceEvent("r", "ask", "out", 1, True), TraceEvent("r", "ask", "out", 1.0, 1)):
            assert ev == twin and hash(ev) == hash(twin)
        assert ev != TraceEvent("r", "ask", "out", False, 1)
        assert ev != TraceEvent("r", "ask", "out", "true", 1)
        assert ev == ("r", "ask", "out", True, 1) and hash(ev) == hash(("r", "ask", "out", True, 1))
        assert LogEntry(*self.ENTRY) == self.ENTRY
        assert LogEntry(*self.ENTRY) != LogEntry(*self.ENTRY[:-1], 2)
        assert len({LogEntry(*self.ENTRY), LogEntry(*self.ENTRY[:-1], True)}) == 1

    def test_indexing_and_unpacking(self):
        participant, action, direction, value, seq = ev = TraceEvent("r", "msg", "in", None, 4)
        assert (participant, action, direction, value, seq) == ("r", "msg", "in", None, 4)
        assert ev[1] == ev.action and ev[-1] == ev.seq and ev[:4] == ("r", "msg", "in", None)

    def test_replace(self):
        entry = LogEntry(*self.ENTRY)
        illegal = entry._replace(mu=None, interval=None, observed=None, verdict=VERDICT_ILLEGAL)
        assert illegal == ("R1", "ack", None, None, None, VERDICT_ILLEGAL, 1)
        assert entry == self.ENTRY
        ev = TraceEvent("r", "msg", "in")
        assert ev._replace(seq=3) == TraceEvent("r", "msg", "in", None, 3)
        with pytest.raises(ValueError):
            ev._replace(dir="out")

    def test_positional_records_write_like_json_dumps(self):
        events = [TraceEvent("r", "msg", "in"), TraceEvent("r", "ack", "out", None, 1),
                  TraceEvent("r", "msg", "in", None, 2), TraceEvent("r", "ask", "out", "é%", 3)]
        out = io.StringIO()
        write_trace(out, events)
        assert out.getvalue() == _reference_lines(trace_event_to_json, events)
        log = [LogEntry(*self.ENTRY), LogEntry(*self.ENTRY[:-1], 2),
               LogEntry("R1", "nak", None, None, None, VERDICT_ILLEGAL, 3)]
        out = io.StringIO()
        write_log(out, log)
        assert out.getvalue() == _reference_lines(log_entry_to_json, log)


class TestMonitorConfig:
    @pytest.mark.parametrize("bound", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_bound(self, bound):
        with pytest.raises(ValueError):
            MonitorConfig(error_bound=bound)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            MonitorConfig(warmup=-1)
