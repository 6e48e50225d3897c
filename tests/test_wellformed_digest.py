"""A pinned digest of what ``validate`` reports, order included, on specs
with planted defects.

Each input is a serialized random spec with a few states appended that
break the rules on purpose: they are unreachable from the start and
disconnected from it, their ratios rarely sum to 1, their decisions leave
out labels, and they are declared in an order unlike the sorted order of
their names and actions.  Each input gives the diagnostics of ``validate``
on the parsed text and of ``check_transition_rules`` on a perturbed
transition set (tuples dropped and added), so every rule fires, most of them
several times in one spec.  A record is the ``(rule, state, action, detail,
span)`` of each diagnostic in the order reported, so a change that moves,
rewords, drops or reorders a finding changes the digest.
"""

import hashlib
import random
from collections import Counter

from tsmon.dsl import parse_protocol, serialize_protocol
from tsmon.wellformed import build_trs, check_transition_rules, validate

from specgen import perturbed_trs, random_wellformed_spec

PINNED_DIGEST = "f1f646a70fc8eeeea89b6b96815d6f5d6004121dd2197dfcd454090b7e3fff03"
SEEDS = range(40)

_PLANTED_STATES = ["Zq", "Zb", "Zm", "Zd"]
_PLANTED_ACTIONS = ["zb", "za", "zd", "zc"]
_ZONE = ("zn", "ze", "zs")


def _planted_branch(rng, action, targets):
    ratio = rng.choice(["_", "0.25", "0.5", "0.125", "1.0"])
    kind = rng.random()
    if kind < 0.4:
        return f"unit {action}() [{ratio}; []; []] : {rng.choice(targets)}"
    if kind < 0.7:
        rtype, labels = "Zone", rng.sample(_ZONE, rng.randint(1, 3))
    else:
        rtype, labels = "boolean", rng.sample(["true", "false"], rng.randint(1, 2))
    cases = ", ".join(f"{label}: {rng.choice(targets)}" for label in labels)
    return f"{rtype} {action}() [{ratio}; []; []] : <{cases}>"


def planted_text(seed):
    """``random_wellformed_spec(seed)`` serialized, with broken states after it."""
    rng = random.Random(seed)
    lines = [serialize_protocol(random_wellformed_spec(seed, max_states=8))]
    lines.append(f"enum Zone {{ {', '.join(_ZONE)} }}")
    planted = rng.sample(_PLANTED_STATES, 3)
    targets = planted + ["Zend"] * rng.randint(0, 1)
    for state in planted:
        actions = rng.sample(_PLANTED_ACTIONS, rng.randint(2, 4))
        half = rng.randint(1, len(actions))
        sessions = [
            marker + "{ " + ", ".join(_planted_branch(rng, a, targets) for a in part) + " }"
            for marker, part in (("?", actions[:half]), ("!", actions[half:]))
            if part
        ]
        lines.append(f"state {state} = {' + '.join(sessions)}")
    if "Zend" in targets:
        lines.append("state Zend = end")
    return "\n".join(lines) + "\n"


def _perturbed(spec, rng):
    """``perturbed_trs`` with the additions of two more draws."""
    built = build_trs(spec)
    tuples = set(perturbed_trs(spec, rng))
    for _ in range(2):
        tuples |= perturbed_trs(spec, rng) - built
    return frozenset(tuples)


def _record(diag):
    span = diag.span and (diag.span.line, diag.span.column, diag.span.length)
    return (diag.rule, diag.state, diag.action, diag.detail, span)


def records(seed):
    """The diagnostics of ``validate`` and of the transition rules on a
    perturbed set, for one planted spec."""
    spec = parse_protocol(planted_text(seed))
    trs = _perturbed(spec, random.Random(seed))
    return (
        [_record(d) for d in validate(spec)],
        [_record(d) for d in check_transition_rules(spec, trs)],
    )


def digest(all_records):
    h = hashlib.sha256()
    for rec in all_records:
        h.update(repr(rec).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_diagnostics_match_the_pinned_digest():
    assert digest(records(seed) for seed in SEEDS) == PINNED_DIGEST


def test_every_rule_fires_twice_in_one_spec():
    """The digest pins the order within each rule only if some spec reports
    that rule more than once."""
    most = Counter()
    for seed in SEEDS:
        per_spec = Counter(rec[0] for part in records(seed) for rec in part)
        for rule, count in per_spec.items():
            most[rule] = max(most[rule], count)
    assert len(most) == 9, most
    assert min(most.values()) >= 2, most
