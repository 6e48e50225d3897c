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
The log is output, not state: ``feed`` returns the entries it made;
:class:`MTInfo` has no log.

The JSON Lines codecs give exactly what one ``json.dumps`` or ``json.loads``
per line gives, but that the reader refuses an integer of more than
``_MAX_INT_DIGITS`` digits.  A writer caches a format string made by ``json.dumps`` per
distinct value of the fields that repeat from line to line, and fills in
``seq``, or ``observed`` and ``event_index``; a line with a field of another
type is dumped whole.  :func:`iter_trace` yields events as it reads lines,
and :func:`read_trace` is the list of them; a line is parsed in full only when
its head (all before ``, "seq": ``) is new, and else just its ``seq`` is read.
The writers hand a file ``_CHUNK`` (256) lines per ``write`` and the reader
takes it a line at a time, so neither holds a copy of the whole text, and
``tsmon monitor`` streams a trace to its log in memory that does not grow
with the trace.

:class:`TraceEvent` and :class:`LogEntry` are named tuples: immutable, built
by position or keyword, read by attribute, index or unpacking, and equal to a
plain tuple of their fields.  The loop and the codecs unpack them.
"""

from __future__ import annotations

import json
import math
import re
from itertools import count, islice
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union, get_args

from . import semantics
from .model import _MAX_INT_DIGITS, ProtocolSpec, Record, Value, _setattr
from .semantics import (
    EvalError, IllegalActionError, Transitions, VarStore, fire, scope_of, store_of
)

__all__ = [
    "LogEntry",
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
    """Error bounds and warmup threshold for verdict computation.

    ``per_action_error`` overrides the global bound for specific
    (state, action) pairs; it defaults to a new empty dict.  While a state's
    updated execution count is below ``warmup`` the verdict is ``warmup``
    instead of ok/deviation.
    """

    __slots__ = ("error_bound", "per_action_error", "warmup")

    def __init__(
        self, error_bound: float = 0.1,
        per_action_error: Optional[Mapping[tuple[str, str], float]] = None, warmup: int = 10,
    ) -> None:
        per_action_error = {} if per_action_error is None else per_action_error
        # Written so that NaN fails too: every comparison with it is false.
        if not 0 < error_bound < math.inf:
            raise ValueError("error bound must be positive and finite")
        for key, bound in per_action_error.items():
            if not 0 < bound < math.inf:
                raise ValueError(f"error bound for {key} must be positive and finite")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        _setattr(self, "error_bound", error_bound)
        _setattr(self, "per_action_error", per_action_error)
        _setattr(self, "warmup", warmup)

    def bound_for(self, state: str, action: str) -> float:
        return self.per_action_error.get((state, action), self.error_bound)


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
        # value: the target, the ratio and the interval.
        self.steps: dict[tuple[str, str, str], tuple[str, Optional[float], Optional[tuple]]] = {}
        self.n: dict[str, int] = {}
        self.p: dict[tuple[str, str], int] = {}

    def feed(self, events: Iterable[TraceEvent]) -> list[LogEntry]:
        """Consume ``events``; return the entries they made, at most one each:
        a verdict for an action with a ratio, ``illegal`` for an event that no
        transition allows.  If ``events`` raises, the events before it
        stay consumed."""
        conf, table, intervals, steps, n, p = self.conf, self.table, self.intervals, self.steps, self.n, self.p
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
                    mu, interval = t.branch.ratio, None
                    if mu is not None:
                        interval = intervals.get((state, action))
                        if interval is None:
                            bound = conf.bound_for(state, action)
                            interval = intervals[state, action] = (mu - bound, mu + bound)
                    if t.effect is None and t.target is not None:  # fire returns the target
                        steps[state, action, direction] = (target, mu, interval)
                    scope = after
                else:
                    target, mu, interval = step
                if mu is not None:
                    n_before = n.get(state, 0)
                    p_before = p.get((state, action), 0)
                    observed = (p_before + 1) / (n_before + 1)
                    low, high = interval
                    if n_before + 1 < conf.warmup:
                        verdict = VERDICT_WARMUP
                    elif observed < low:
                        verdict = VERDICT_DEVIATION_LOW
                    elif observed > high:
                        verdict = VERDICT_DEVIATION_HIGH
                    else:
                        verdict = VERDICT_OK
                    log.append(_tuple_new(LogEntry, (state, action, mu, interval, observed, verdict, seq)))
                    n[state] = n_before + 1
                    p[(state, action)] = p_before + 1
                state = target
        finally:
            self.state, self.scope = state, scope
        return log

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
    _write(target, _trace_lines(events))


def _trace_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    templates = {}
    for ev in events:
        p, a, d, v, seq = ev
        if type(seq) is int and type(p) is type(a) is type(d) is str and type(v) in _VALUE_TYPES:
            template = templates.get((p, a, d, v))
            if template is None:
                template = templates[p, a, d, v] = _template(trace_event_to_json(ev), seq="%d")
            yield template % seq
        else:
            yield json.dumps(trace_event_to_json(ev)) + "\n"


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


def write_log(target: Union[str, Path, IO[str]], log: Iterable[LogEntry]) -> None:
    _write(target, _log_lines(log))


def _log_lines(log: Iterable[LogEntry]) -> Iterator[str]:
    templates = {}
    for e in log:
        state, action, mu, iv, obs, verdict, idx = e
        # mu and the interval key the cache, so they must be floats (1 and True
        # equal 1.0) and not zero (0.0 equals -0.0).
        if (type(idx) is int and type(obs) is float and math.isfinite(obs)
                and type(mu) is float and mu and type(iv) is tuple and len(iv) == 2
                and type(iv[0]) is type(iv[1]) is float and iv[0] and iv[1]
                and type(state) is type(action) is type(verdict) is str):
            key = (state, action, mu, iv, verdict)
            template = templates.get(key)
            if template is None:
                template = templates[key] = _template(
                    log_entry_to_json(e), observed="%r", event_index="%d"
                )
            yield template % (obs, idx)
        else:
            yield json.dumps(log_entry_to_json(e)) + "\n"
