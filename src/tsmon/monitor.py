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

One loop, ``_resume``, consumes events: :func:`run_trace` runs it over a
whole trace from the initial configuration and :func:`monitor_step` over a
single event, so the fold and the trace run cannot drift apart.  It hands
each event to :func:`tsmon.semantics.step` once and takes the branch's
session side and ratio from the result.

The JSON Lines codecs give exactly what one ``json.dumps`` or ``json.loads``
per line gives.  A writer caches a format string made by ``json.dumps`` per
distinct value of the fields that repeat from line to line, and fills in
``seq``, or ``observed`` and ``event_index``; a line with a field of another
type is dumped whole.  :func:`read_trace` parses a line in full only when its
head (all before ``, "seq": ``) is new, and else reads just the ``seq``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Union, get_args

from . import semantics
from .model import ProtocolSpec, Value
from .semantics import EvalError, IllegalActionError, TInfo, VarStore

__all__ = [
    "LogEntry",
    "MTInfo",
    "MonitorConfig",
    "TraceEvent",
    "VERDICT_DEVIATION_HIGH",
    "VERDICT_DEVIATION_LOW",
    "VERDICT_ILLEGAL",
    "VERDICT_OK",
    "VERDICT_WARMUP",
    "initial_monitor",
    "log_entry_to_json",
    "monitor_step",
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


@dataclass(frozen=True)
class MonitorConfig:
    """Error bounds and warmup threshold for verdict computation.

    ``per_action_error`` overrides the global bound for specific
    (state, action) pairs.  While a state's updated execution count is below
    ``warmup`` the verdict is ``warmup`` instead of ok/deviation.
    """

    error_bound: float = 0.1
    per_action_error: Mapping[tuple[str, str], float] = field(default_factory=dict)
    warmup: int = 10

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with it is false.
        if not 0 < self.error_bound < math.inf:
            raise ValueError("error bound must be positive and finite")
        for key, bound in self.per_action_error.items():
            if not 0 < bound < math.inf:
                raise ValueError(f"error bound for {key} must be positive and finite")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    def bound_for(self, state: str, action: str) -> float:
        return self.per_action_error.get((state, action), self.error_bound)


@dataclass(frozen=True)
class TraceEvent:
    """One observed action execution."""

    participant: str
    action: str
    direction: str  # "in" | "out"
    value: Value = None
    seq: int = 0


@dataclass(frozen=True)
class LogEntry:
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


@dataclass(frozen=True)
class MTInfo:
    """Monitor configuration: semantics state plus counters and the log."""

    state: str
    store: VarStore
    n: Mapping[str, int]
    p: Mapping[tuple[str, str], int]
    log: tuple[LogEntry, ...]


def initial_monitor(spec: ProtocolSpec) -> MTInfo:
    cfg = semantics.initial_config(spec)
    return MTInfo(state=cfg.state, store=cfg.store, n={}, p={}, log=())


def _resume(
    spec: ProtocolSpec, cfg: MTInfo, conf: MonitorConfig, events: Iterable[TraceEvent]
) -> MTInfo:
    """The monitor loop: consume ``events`` starting from ``cfg``.

    Counters and the log are copied once and updated in place, so each event
    costs the same however long the trace is; ``cfg`` itself is not changed.
    """
    state, store = cfg.state, cfg.store
    n = dict(cfg.n)
    p = dict(cfg.p)
    log = list(cfg.log)
    for ev in events:
        try:
            outcome = semantics.step(spec, TInfo(state, store), ev.action, ev.value)
        except (IllegalActionError, EvalError):
            outcome = None
        if outcome is None or ev.direction != (DIRECTION_IN if outcome.is_input else DIRECTION_OUT):
            log.append(
                LogEntry(state, ev.action, None, None, None, VERDICT_ILLEGAL, ev.seq)
            )
            continue
        mu = outcome.branch.ratio
        if mu is not None:
            n_before = n.get(state, 0)
            p_before = p.get((state, ev.action), 0)
            observed = (p_before + 1) / (n_before + 1)
            bound = conf.bound_for(state, ev.action)
            low, high = mu - bound, mu + bound
            if n_before + 1 < conf.warmup:
                verdict = VERDICT_WARMUP
            elif observed < low:
                verdict = VERDICT_DEVIATION_LOW
            elif observed > high:
                verdict = VERDICT_DEVIATION_HIGH
            else:
                verdict = VERDICT_OK
            log.append(LogEntry(state, ev.action, mu, (low, high), observed, verdict, ev.seq))
            n[state] = n_before + 1
            p[(state, ev.action)] = p_before + 1
        state, store = outcome.next.state, outcome.next.store
    return MTInfo(state, store, n, p, tuple(log))


def monitor_step(
    spec: ProtocolSpec, cfg: MTInfo, conf: MonitorConfig, ev: TraceEvent
) -> MTInfo:
    """Consume one event and return the next monitor configuration.

    Illegal events (no matching transition, wrong value, a direction that
    contradicts the branch's session side, or an expression that cannot be
    evaluated) produce an illegal log entry and change nothing else.  Legal
    events advance the semantics; those with a numeric ratio also update the
    counters and append a verdict entry.  ``cfg`` is not changed.
    """
    return _resume(spec, cfg, conf, (ev,))


def run_trace(
    spec: ProtocolSpec, conf: MonitorConfig, events: Iterable[TraceEvent]
) -> MTInfo:
    """Monitor an event sequence ordered by ``seq`` from the initial
    configuration; equal to folding :func:`monitor_step` over it."""
    return _resume(spec, initial_monitor(spec), conf, events)


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
    if not isinstance(obj, dict):
        raise ValueError(f"trace event is not a JSON object: {obj!r}")
    ev = TraceEvent(
        participant=obj["participant"],
        action=obj["action"],
        direction=obj["dir"],
        value=obj.get("value"),
        seq=obj["seq"],
    )
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


def _write(target: Union[str, Path, IO[str]], lines: Iterable[str]) -> None:
    text = "".join(lines)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)


def write_trace(target: Union[str, Path, IO[str]], events: Iterable[TraceEvent]) -> None:
    lines, templates = [], {}
    for ev in events:
        p, a, d, v, seq = ev.participant, ev.action, ev.direction, ev.value, ev.seq
        if type(seq) is int and type(p) is type(a) is type(d) is str and type(v) in _VALUE_TYPES:
            template = templates.get((p, a, d, v))
            if template is None:
                template = templates[p, a, d, v] = _template(trace_event_to_json(ev), seq="%d")
            lines.append(template % seq)
        else:
            lines.append(json.dumps(trace_event_to_json(ev)) + "\n")
    _write(target, lines)


def read_trace(source: Union[str, Path, IO[str]]) -> list[TraceEvent]:
    """Events of one participant's trace; raises ValueError on a malformed
    line or on events of more than one participant."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    events, participants = [], set()
    # A line is a head, ``, "seq": `` and a tail.  Once a line has parsed as
    # an event, a later line with the same head differs from it only in seq.
    heads: dict[str, tuple] = {}
    for line in text.split("\n"):  # not splitlines(): U+2028 and the like may sit in a string
        head, _, tail = line.rpartition(', "seq": ')
        fields = heads.get(head)
        if fields is not None and _SEQ_TAIL.fullmatch(tail):
            events.append(TraceEvent(*fields, int(tail[:-1])))
        elif line.strip():
            try:
                ev = trace_event_from_json(json.loads(line))
            except RecursionError:
                raise ValueError("trace line nests too deeply") from None
            if _SEQ_TAIL.fullmatch(tail):
                heads[head] = (ev.participant, ev.action, ev.direction, ev.value)
            participants.add(ev.participant)
            events.append(ev)
    if len(participants) > 1:
        raise ValueError(f"events of several participants: {sorted(participants)}")
    return events


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
    lines, templates = [], {}
    for e in log:
        mu, iv, obs, idx = e.mu, e.interval, e.observed, e.event_index
        # mu and the interval key the cache, so they must be floats (1 and True
        # equal 1.0) and not zero (0.0 equals -0.0).
        if (type(idx) is int and type(obs) is float and math.isfinite(obs)
                and type(mu) is float and mu and type(iv) is tuple and len(iv) == 2
                and type(iv[0]) is type(iv[1]) is float and iv[0] and iv[1]
                and type(e.state) is type(e.action) is type(e.verdict) is str):
            key = (e.state, e.action, mu, iv, e.verdict)
            template = templates.get(key)
            if template is None:
                template = templates[key] = _template(
                    log_entry_to_json(e), observed="%r", event_index="%d"
                )
            lines.append(template % (obs, idx))
        else:
            lines.append(json.dumps(log_entry_to_json(e)) + "\n")
    _write(target, lines)
