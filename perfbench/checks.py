"""Output checks that do not use the code under test.

The reference monitor below re-implements the documented verdict rule:
for a monitored action ``m`` executed in state ``s`` the observed ratio is
``(p + 1) / (n + 1)`` from the counters before the event, compared against
``[mu - E, mu + E]``; ``warmup`` while the updated count of ``s`` is below
the warmup threshold.  The protocol tables are transcribed from the bundled
``sender.tsp`` and ``receiver.tsp``, which the paper fixes.
"""

from __future__ import annotations

import json
import re

# state -> action -> (direction, ratio or None, next state)
SENDER = {
    "S0": {"msg": ("out", None, "S1")},
    "S1": {"msg": ("out", None, "S1"), "ack": ("in", None, "S0")},
}
RECEIVER = {
    "R0": {"msg": ("in", None, "R1")},
    "R1": {"ack": ("out", 0.5, "R1"), "msg": ("in", 0.5, "R1")},
}
BUNDLED_GRAPHS = {  # bundled spec -> (states, transitions)
    "sender": (2, 3),
    "receiver": (2, 3),
    "leader": (3, 4),
    "peer": (2, 4),
}

LOG_KEYS = ("state", "action", "mu", "interval", "observed", "verdict", "event_index")


def reference_log(table: dict, events: list[dict], error: float, warmup: int) -> list[dict]:
    """Verdict log for a counter-free protocol table."""
    state = next(iter(table))
    n: dict[str, int] = {}
    p: dict[tuple[str, str], int] = {}
    log = []
    for ev in events:
        entry = table[state].get(ev["action"])
        if entry is None or entry[0] != ev["dir"] or ev.get("value") is not None:
            log.append(dict(zip(LOG_KEYS, (state, ev["action"], None, None, None, "illegal", ev["seq"]))))
            continue
        _, mu, nxt = entry
        if mu is not None:
            n_before, p_before = n.get(state, 0), p.get((state, ev["action"]), 0)
            observed = (p_before + 1) / (n_before + 1)
            low, high = mu - error, mu + error
            if n_before + 1 < warmup:
                verdict = "warmup"
            elif observed < low:
                verdict = "deviation_low"
            elif observed > high:
                verdict = "deviation_high"
            else:
                verdict = "ok"
            log.append(dict(zip(LOG_KEYS, (state, ev["action"], mu, [low, high], observed, verdict, ev["seq"]))))
            n[state] = n_before + 1
            p[(state, ev["action"])] = p_before + 1
        state = nxt
    return log


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare_log(actual: list[dict], expected: list[dict]) -> str | None:
    """None when equal on the documented fields; else the first mismatch.
    Extra fields a later version adds to entries are ignored."""
    if len(actual) != len(expected):
        return f"{len(actual)} log entries, reference has {len(expected)}"
    for i, (got, want) in enumerate(zip(actual, expected)):
        trimmed = {k: got.get(k) for k in LOG_KEYS}
        if trimmed != want:
            return f"entry {i}: {trimmed} != reference {want}"
    return None


_NODE = re.compile(r'^  "[^"]+"( \[penwidth=2\])?;$')


def dot_counts(text: str) -> tuple[int, int]:
    """(state nodes, transition edges) of a DOT export."""
    lines = text.splitlines()
    nodes = sum(bool(_NODE.match(line)) for line in lines)
    edges = sum(" -> " in line for line in lines)
    return nodes, edges


def last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def reported_rules(stderr: str) -> set[str]:
    """Rule names of ``RULE file:line:col message`` diagnostic lines."""
    return {line.split(" ", 1)[0] for line in stderr.splitlines() if re.match(r"^[A-Z-]+ \S+:\d+:\d+ ", line)}
