"""Runtime monitor: folds trace events, counting executions per state/action
and comparing observed ratios against declared ones via confidence intervals.

For a monitorable action (one with a numeric ratio ``mu``) executing in state
``s``, the observed ratio is ``(p + 1) / (n + 1)`` computed from the counters
before they are incremented, where ``n`` counts all monitored executions in
``s`` and ``p`` those of this action.  The verdict compares it against the
closed interval ``[mu - E, mu + E]``.  Counters persist across re-entries to
a state.  Events that do not match any transition, arrive on the wrong
session side or fail to evaluate (an int64 overflow in an assignment) are
logged as illegal and leave the monitor untouched; the monitor never blocks
transitions.

One loop, :meth:`Monitor.feed`, consumes events: :func:`run_trace` feeds a
whole trace to a new :class:`Monitor`, and an online caller feeds the same
object each event as it arrives, so the two cannot drift apart.  The monitor
holds the state, the variables and the counters, compiles each (state,
action) pair it meets once into a :class:`tsmon.semantics.Transitions` table,
executes each event with :func:`tsmon.semantics.fire`, and takes the session
side and ratio from the compiled transition.  An event with no value on a
transition with no effect and a plain target takes the target without the
call, which is what ``fire`` returns for it (see :mod:`tsmon.semantics`): the
monitor keeps that step per (state, action, direction) once it has met it.
``tsmon monitor`` runs :class:`LogLines`, which takes one such step from a
trace line to its log line: it keys the step on the state and the line's head
(all before ``, "seq": ``), and for a head it has met in that state it reads
just the ``seq``, applies the verdict rule and fills in the step's log
template for that verdict.  Any other line is read, fed and written as below.
``feed`` and :class:`LogLines` share the verdict rule, ``Monitor._judge``.
The log is output, not state: ``feed`` returns the entries it made;
:class:`MTInfo` has no log.

The JSON Lines codecs give exactly what one ``json.dumps`` or ``json.loads``
per line gives, but that the reader refuses an integer of more than
``_MAX_INT_DIGITS`` digits.  :func:`write_trace` dumps each event whole.  The
log writer caches a format string made by ``json.dumps`` per distinct value
of the fields that repeat from line to line and fills in ``observed`` and
``event_index``; a line with a field of another type is dumped whole.
``_write_heads``, which writes a simulated trace, makes one such string per
distinct head and fills in ``seq``.  :func:`iter_trace` yields events as it
reads lines, and :func:`read_trace` is the list of them; a line is parsed in
full only when its head (all before ``, "seq": ``) is new, and else just its
``seq`` is read.  The writers hand a file ``_CHUNK`` (256) lines per ``write``
and the readers take it a line at a time, so neither holds a copy of the
whole text, and ``tsmon monitor`` streams a trace to its log in memory that
does not grow with the trace.

:class:`TraceEvent` and :class:`LogEntry` are named tuples: immutable, built
by position or keyword, read by attribute, index or unpacking, and equal to a
plain tuple of their fields.  The loop and the codecs unpack them.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from itertools import count, islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union, get_args

from . import semantics
from .model import _MAX_INT_DIGITS, ProtocolSpec, Record, Value, _setattr
from .semantics import (
    EvalError, IllegalActionError, Transitions, VarStore, fire, scope_of, store_of
)

__all__ = [
    "LogEntry",
    "LogLines",
    "MTInfo",
    "Monitor",
    "MonitorConfig",
    "MonitorRun",
    "TraceEvent",
    "VERDICT_DEVIATION_HIGH",
    "VERDICT_DEVIATION_LOW",
    "VERDICT_ILLEGAL",
    "VERDICT_OK",
    "VERDICT_WARMUP",
    "iter_trace",
    "log_entry_to_json",
    "read_trace",
    "run_trace",
    "trace_event_from_json",
    "trace_event_to_json",
    "write_log",
    "write_trace",
]

VERDICT_OK = "ok"
VERDICT_DEVIATION_LOW = "deviation_low"
VERDICT_DEVIATION_HIGH = "deviation_high"
VERDICT_WARMUP = "warmup"
VERDICT_ILLEGAL = "illegal"

DIRECTION_IN = "in"
DIRECTION_OUT = "out"

# The types a trace event's ``value`` may have: None, bool and str.
_VALUE_TYPES = get_args(Value)

# The tail of a trace line after ``, "seq": ``: a JSON integer (of at most 100
# digits; ``int()`` refuses 4300 by default) and the closing brace.
_SEQ_TAIL = re.compile(r"-?(?:0|[1-9][0-9]{0,99})\}")

_tuple_new = tuple.__new__  # builds a record without its __new__ call

# Lines per ``write`` of the JSON Lines writers.
_CHUNK = 256


class MonitorConfig(Record):
    """Error bound and warmup threshold for verdict computation.

    While a state's updated execution count is below ``warmup`` the verdict
    is ``warmup`` instead of ok/deviation.
    """

    __slots__ = ("error_bound", "warmup")

    def __init__(self, error_bound: float = 0.1, warmup: int = 10) -> None:
        # Written so that NaN fails too: every comparison with it is false.
        if not 0 < error_bound < math.inf:
            raise ValueError("error bound must be positive and finite")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        _setattr(self, "error_bound", error_bound)
        _setattr(self, "warmup", warmup)


class TraceEvent(NamedTuple):
    """One observed action execution."""

    participant: str
    action: str
    direction: str  # "in" | "out"
    value: Value = None
    seq: int = 0


class LogEntry(NamedTuple):
    """One monitor observation.

    ``mu``/``interval``/``observed`` are ``None`` on illegal entries, where
    no declared ratio applies.
    """

    state: str
    action: str
    mu: Optional[float]
    interval: Optional[tuple[float, float]]
    observed: Optional[float]
    verdict: str
    event_index: int


class MTInfo(Record):
    """A snapshot of a :class:`Monitor`, taken by :meth:`Monitor.config`:
    semantics state plus the ``n``/``p`` counters, no log."""

    __slots__ = ("state", "store", "n", "p")

    def __init__(
        self, state: str, store: VarStore, n: Mapping[str, int], p: Mapping[tuple[str, str], int]
    ) -> None:
        _setattr(self, "state", state)
        _setattr(self, "store", store)
        _setattr(self, "n", n)
        _setattr(self, "p", p)


class MonitorRun(NamedTuple):
    """What :func:`run_trace` returns: the last configuration and the log."""

    final: MTInfo
    log: tuple[LogEntry, ...]


class Monitor:
    """The monitor of one trace: :meth:`feed` consumes events as they arrive
    and :meth:`config` takes a snapshot of the configuration."""

    __slots__ = ("conf", "state", "scope", "_store", "table", "intervals", "steps", "n", "p")

    def __init__(self, spec: ProtocolSpec, conf: MonitorConfig) -> None:
        cfg = semantics.initial_config(spec)
        self.conf = conf
        self.state, self._store = cfg.state, cfg.store  # for its names and constants
        self.scope = scope_of(cfg.store)
        self.table = Transitions(spec, cfg.store.vars)
        self.intervals: dict[tuple[str, str], tuple[float, float]] = {}  # shared by entries
        # The step of each (state, action, direction) met before whose
        # transition has no effect and a plain target, for an event with no
        # value: the target, (state, action), the ratio, the interval and the
        # log templates that :class:`LogLines` made for it, per verdict.
        self.steps: dict[tuple[str, str, str], tuple[str, tuple, Optional[float], Optional[tuple], dict]] = {}
        self.n: dict[str, int] = {}
        self.p: dict[tuple[str, str], int] = {}

    def feed(self, events: Iterable[TraceEvent]) -> list[LogEntry]:
        """Consume ``events``; return the entries they made, at most one each:
        a verdict for an action with a ratio, ``illegal`` for an event that no
        transition allows.  If ``events`` raises, the events before it
        stay consumed."""
        conf, table, intervals, steps, judge = self.conf, self.table, self.intervals, self.steps, self._judge
        state, scope = self.state, self.scope
        log: list[LogEntry] = []
        try:
            for _, action, direction, value, seq in events:
                # Only None takes a cached step: 1 is not true, and [] does not hash.
                step = steps.get((state, action, direction)) if value is None else None
                if step is None:
                    t = table[state, action]
                    try:
                        target, after, _ = fire(t, state, action, value, scope)
                    except (IllegalActionError, EvalError):
                        t = None
                    if t is None or direction != (DIRECTION_IN if t.is_input else DIRECTION_OUT):
                        log.append(LogEntry(state, action, None, None, None, VERDICT_ILLEGAL, seq))
                        continue
                    key, mu, interval = (state, action), t.branch.ratio, None
                    if mu is not None:
                        interval = intervals.get(key)
                        if interval is None:
                            interval = intervals[key] = (mu - conf.error_bound, mu + conf.error_bound)
                    if t.effect is None and t.target is not None:  # fire returns the target
                        steps[state, action, direction] = (target, key, mu, interval, {})
                    scope = after
                else:
                    target, key, mu, interval, _ = step
                if mu is not None:
                    observed, verdict = judge(key, interval)
                    log.append(_tuple_new(LogEntry, (state, action, mu, interval, observed, verdict, seq)))
                state = target
        finally:
            self.state, self.scope = state, scope
        return log

    def _judge(self, key: tuple[str, str], interval: tuple[float, float]) -> tuple[float, str]:
        """The observed ratio and the verdict of an event of a monitored action
        in a state, ``key`` being (state, action); counts the event."""
        n, p = self.n, self.p
        n_before = n.get(key[0], 0)
        p_before = p.get(key, 0)
        observed = (p_before + 1) / (n_before + 1)
        if n_before + 1 < self.conf.warmup:
            verdict = VERDICT_WARMUP
        elif observed < interval[0]:
            verdict = VERDICT_DEVIATION_LOW
        elif observed > interval[1]:
            verdict = VERDICT_DEVIATION_HIGH
        else:
            verdict = VERDICT_OK
        n[key[0]] = n_before + 1
        p[key] = p_before + 1
        return observed, verdict

    def config(self) -> MTInfo:
        """A snapshot of the configuration, which later feeds do not change."""
        return MTInfo(self.state, store_of(self.scope, self._store), dict(self.n), dict(self.p))


def run_trace(
    spec: ProtocolSpec, conf: MonitorConfig, events: Iterable[TraceEvent]
) -> MonitorRun:
    """Monitor events ordered by ``seq`` from the initial configuration: one
    :meth:`Monitor.feed` of the whole trace, its last configuration and log."""
    m = Monitor(spec, conf)
    log = m.feed(events)
    return MonitorRun(m.config(), tuple(log))


# --------------------------------------------------------------------------
# JSON Lines interfaces
# --------------------------------------------------------------------------


def trace_event_to_json(ev: TraceEvent) -> dict:
    return {
        "participant": ev.participant,
        "action": ev.action,
        "dir": ev.direction,
        "value": ev.value,
        "seq": ev.seq,
    }


def trace_event_from_json(obj: dict) -> TraceEvent:
    """The event of a decoded trace line; raises ValueError, naming the field,
    if a field is missing or of the wrong type."""
    if not isinstance(obj, dict):
        raise ValueError(f"trace event is not a JSON object: {obj!r}")
    try:
        ev = TraceEvent(
            participant=obj["participant"],
            action=obj["action"],
            direction=obj["dir"],
            value=obj.get("value"),
            seq=obj["seq"],
        )
    except KeyError as exc:
        raise ValueError(f"trace event has no {exc.args[0]!r} field: {obj!r}") from None
    if not isinstance(ev.participant, str) or not isinstance(ev.action, str):
        raise ValueError(f"participant and action must be strings: {obj!r}")
    if ev.direction not in (DIRECTION_IN, DIRECTION_OUT):
        raise ValueError(f"dir must be {DIRECTION_IN!r} or {DIRECTION_OUT!r}: {obj!r}")
    # A number would compare equal to a boolean outcome (1 == True).
    if type(ev.value) not in _VALUE_TYPES:
        raise ValueError(f"value must be null, a boolean or a string: {obj!r}")
    # bool is a subclass of int but not a sequence number.
    if type(ev.seq) is not int:
        raise ValueError(f"seq must be an integer: {obj!r}")
    return ev


def _template(obj: dict, **holes: str) -> str:
    """``json.dumps(obj)`` as a %-format line, with ``holes`` mapping keys to conversions."""
    text = json.dumps({**obj, **dict.fromkeys(holes)}).replace("%", "%%")
    # A string value escapes its quotes, so only a key matches.
    for key, conversion in holes.items():
        text = text.replace(f'"{key}": null', f'"{key}": {conversion}', 1)
    return text + "\n"


def _write(target: Union[str, Path, IO[str]], lines: Iterator[str]) -> None:
    """Write ``lines`` to ``target``, ``_CHUNK`` (256) lines per ``write``.  A path
    is opened as ``Path.write_text`` opens it; if encoding a line raises, the
    chunks written before it stay in the file."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh, lines)
        return
    while chunk := "".join(islice(lines, _CHUNK)):
        target.write(chunk)


def write_trace(target: Union[str, Path, IO[str]], events: Iterable[TraceEvent]) -> None:
    _write(target, (json.dumps(trace_event_to_json(ev)) + "\n" for ev in events))


def _write_heads(target: Union[str, Path, IO[str]], heads: Sequence[tuple]) -> None:
    """Write the events ``(*heads[i], i)`` as ``write_trace`` writes them, one template per head."""
    templates = {h: _template(trace_event_to_json(_tuple_new(TraceEvent, (*h, 0))), seq="%d") for h in set(heads)}
    _write(target, map(str.__mod__, map(templates.__getitem__, heads), count()))


def read_trace(source: Union[str, Path, IO[str]]) -> list[TraceEvent]:
    """Events of one participant's trace, as :func:`iter_trace` reads them.  A
    path is read line by line with universal newlines, as ``Path.read_text``
    reads it."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return read_trace(fh)
    return list(iter_trace(source))


def iter_trace(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """The events of one participant's trace, one per line of ``lines`` (a text
    file) as it is read; raises ValueError on a malformed line or on events of
    more than one participant.  After the second participant it yields no
    more, but reads on to the end, so that the error names every participant
    and a later malformed line is reported in its place."""
    participants: set[str] = set()
    one = True  # as long as the events have one participant
    # A line is a head, ``, "seq": `` and a tail.  Once a line has parsed as
    # an event, a later line with the same head differs from it only in seq.
    heads: dict[str, tuple] = {}
    for line in lines:  # a text file ends a line only at "\n", unlike splitlines()
        line = line.rstrip("\n")
        head, _, tail = line.rpartition(', "seq": ')
        fields = heads.get(head)
        if fields is not None and _SEQ_TAIL.fullmatch(tail):
            if one:
                yield _tuple_new(TraceEvent, (*fields, int(tail[:-1])))
        elif line.strip():
            try:
                ev = trace_event_from_json(json.loads(line, parse_int=_parse_int))
            except RecursionError:
                raise ValueError("trace line nests too deeply") from None
            if _SEQ_TAIL.fullmatch(tail):
                heads[head] = ev[:4]  # all but seq
            participants.add(ev.participant)
            one = len(participants) == 1
            if one:
                yield ev
    if not one:
        raise ValueError(f"events of several participants: {sorted(participants)}")


def _parse_int(text: str) -> int:
    """A JSON integer with the digit bound of a .tsp literal, whatever ``PYTHONINTMAXSTRDIGITS``."""
    if len(text.lstrip("-")) > _MAX_INT_DIGITS:
        raise ValueError(f"integer of more than {_MAX_INT_DIGITS} digits")
    return int(text)


def log_entry_to_json(entry: LogEntry) -> dict:
    return {
        "state": entry.state,
        "action": entry.action,
        "mu": entry.mu,
        "interval": list(entry.interval) if entry.interval is not None else None,
        "observed": entry.observed,
        "verdict": entry.verdict,
        "event_index": entry.event_index,
    }


def write_log(target: Union[str, Path, IO[str]], log: Union[Iterable[LogEntry], LogLines]) -> None:
    """Write ``log``, entries or the lines of a :class:`LogLines`, which are written as they are."""
    _write(target, iter(log) if type(log) is LogLines else map(_log_line, log, repeat({})))


def _log_line(e: LogEntry, templates: dict) -> str:
    """The line of ``e``, from a format string that ``templates`` caches."""
    state, action, mu, iv, obs, verdict, idx = e
    # mu and the interval key the cache, so they must be floats (1 and True
    # equal 1.0) and not zero (0.0 equals -0.0).
    if (type(idx) is int and type(obs) is float and math.isfinite(obs)
            and type(mu) is float and mu and type(iv) is tuple and len(iv) == 2
            and type(iv[0]) is type(iv[1]) is float and iv[0] and iv[1]
            and type(state) is type(action) is type(verdict) is str):
        return _log_template(templates, e) % (obs, idx)
    return json.dumps(log_entry_to_json(e)) + "\n"


def _log_template(templates: dict, e: LogEntry) -> str:
    """The line of ``e`` as a format string of ``observed`` and ``event_index``,
    which ``templates`` keeps per (state, action, mu, interval, verdict)."""
    key = (*e[:4], e[5])
    template = templates.get(key)
    if template is None:
        template = templates[key] = _template(log_entry_to_json(e), observed="%r", event_index="%d")
    return template


class LogLines:
    """The log lines that ``monitor`` makes of a trace's ``lines`` as it reads
    them: what :func:`write_log` writes of ``monitor.feed(iter_trace(lines))``,
    with the same error.  Iterate once; then ``events`` counts the events and
    ``verdicts`` the entries of each verdict.  A line whose head (all before
    ``, "seq": ``) an earlier line had in the same state, on a step that
    ``feed`` keeps, takes that step to its log line; ``iter_trace`` reads any
    other line for ``feed``.  Only the first participant's lines have steps."""

    __slots__ = ("monitor", "lines", "events", "verdicts")

    def __init__(self, monitor: Monitor, lines: Iterable[str]) -> None:
        self.monitor, self.lines, self.events, self.verdicts = monitor, lines, 0, Counter()

    def __iter__(self) -> Iterator[str]:
        monitor, verdicts, lines, tail_ok = self.monitor, self.verdicts, iter(self.lines), _SEQ_TAIL.fullmatch
        # The lines that take no step go to iter_trace one at a time; after a
        # second participant, it reads on through the rest of the trace.
        missed: list[str] = []
        reader = iter_trace(iter(lambda: missed.pop() if missed else next(lines), None))
        steps: dict[tuple[str, str], tuple] = {}  # per (state, head), the monitor's step
        templates: dict[tuple, str] = {}  # the writer's format strings
        state, events = monitor.state, 0
        try:
            for line in lines:
                head, _, tail = (line := line.rstrip("\n")).rpartition(', "seq": ')
                step = steps.get((state, head))
                if step is not None and tail_ok(tail):
                    state, key, mu, interval, made = step
                    if mu is not None:
                        observed, verdict = monitor._judge(key, interval)
                        verdicts[verdict] += 1
                        template = made.get(verdict) or made.setdefault(
                            verdict, _log_template(templates, LogEntry(*key, mu, interval, None, verdict, 0)))
                        yield template % (observed, int(tail[:-1]))
                    events += 1
                elif line.strip():
                    missed.append(line)
                    ev = next(reader)
                    monitor.state = state
                    for entry in monitor.feed((ev,)):
                        verdicts[entry.verdict] += 1
                        yield _log_line(entry, templates)
                    step = monitor.steps.get((state, ev.action, ev.direction))
                    if step is not None and ev.value is None and tail_ok(tail):
                        steps[state, head] = step
                    state = monitor.state
                    events += 1
        finally:
            monitor.state, self.events = state, events
