"""Runtime monitor: folds trace events, counting executions per state/action
and comparing observed ratios against declared ones via confidence intervals.

For a monitorable action (one with a numeric ratio ``mu``) executing in state
``s``, the observed ratio is ``(p + 1) / (n + 1)`` computed from the counters
before they are incremented, where ``n`` counts all monitored executions in
``s`` and ``p`` those of this action.  The verdict compares it against the
closed interval ``[mu - E, mu + E]``.  Counters persist across re-entries to
a state.  Events that do not match any transition (or arrive on the wrong
session side) are logged as illegal and leave the monitor untouched; the
monitor never blocks transitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Union

from . import semantics
from .model import ProtocolSpec, StateBody, Value, resolve_state
from .semantics import IllegalActionError, TInfo, VarStore

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
        if self.error_bound <= 0:
            raise ValueError("error bound must be positive")
        for key, bound in self.per_action_error.items():
            if bound <= 0:
                raise ValueError(f"error bound for {key} must be positive")
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


def _illegal(cfg: MTInfo, ev: TraceEvent) -> MTInfo:
    entry = LogEntry(
        state=cfg.state,
        action=ev.action,
        mu=None,
        interval=None,
        observed=None,
        verdict=VERDICT_ILLEGAL,
        event_index=ev.seq,
    )
    return MTInfo(cfg.state, cfg.store, cfg.n, cfg.p, cfg.log + (entry,))


def monitor_step(
    spec: ProtocolSpec, cfg: MTInfo, conf: MonitorConfig, ev: TraceEvent
) -> MTInfo:
    """Consume one event and return the next monitor configuration.

    Illegal events (no matching transition, wrong value, or a direction that
    contradicts the branch's session side) produce an illegal log entry and
    change nothing else.  Legal events advance the semantics; those with a
    numeric ratio also update the counters and append a verdict entry.
    """
    body = resolve_state(spec.typestate, cfg.state)
    found = body.find(ev.action) if isinstance(body, StateBody) else None
    if found is None:
        return _illegal(cfg, ev)
    branch, is_input = found
    if ev.direction != (DIRECTION_IN if is_input else DIRECTION_OUT):
        return _illegal(cfg, ev)
    try:
        outcome = semantics.step(spec, TInfo(cfg.state, cfg.store), ev.action, ev.value)
    except IllegalActionError:
        return _illegal(cfg, ev)

    if branch.ratio is None:
        return MTInfo(outcome.next.state, outcome.next.store, cfg.n, cfg.p, cfg.log)

    state = cfg.state
    n_before = cfg.n.get(state, 0)
    p_before = cfg.p.get((state, ev.action), 0)
    observed = (p_before + 1) / (n_before + 1)
    mu = branch.ratio
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
    entry = LogEntry(
        state=state,
        action=ev.action,
        mu=mu,
        interval=(low, high),
        observed=observed,
        verdict=verdict,
        event_index=ev.seq,
    )
    n = dict(cfg.n)
    n[state] = n_before + 1
    p = dict(cfg.p)
    p[(state, ev.action)] = p_before + 1
    return MTInfo(outcome.next.state, outcome.next.store, n, p, cfg.log + (entry,))


def run_trace(
    spec: ProtocolSpec, conf: MonitorConfig, events: Iterable[TraceEvent]
) -> MTInfo:
    """Fold :func:`monitor_step` over an event sequence ordered by ``seq``."""
    cfg = initial_monitor(spec)
    for ev in events:
        cfg = monitor_step(spec, cfg, conf, ev)
    return cfg


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
    return TraceEvent(
        participant=obj["participant"],
        action=obj["action"],
        direction=obj["dir"],
        value=obj.get("value"),
        seq=obj["seq"],
    )


def write_trace(target: Union[str, Path, IO[str]], events: Iterable[TraceEvent]) -> None:
    lines = "".join(json.dumps(trace_event_to_json(ev)) + "\n" for ev in events)
    if isinstance(target, (str, Path)):
        Path(target).write_text(lines, encoding="utf-8")
    else:
        target.write(lines)


def read_trace(source: Union[str, Path, IO[str]]) -> list[TraceEvent]:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    return [
        trace_event_from_json(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


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
    lines = "".join(json.dumps(log_entry_to_json(e)) + "\n" for e in log)
    if isinstance(target, (str, Path)):
        Path(target).write_text(lines, encoding="utf-8")
    else:
        target.write(lines)
