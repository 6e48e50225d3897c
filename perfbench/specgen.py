"""Seeded generator of `.tsp` texts for the spec-corpus workload.

The corpus has a fixed composition (:data:`CORPUS_SLOTS`): each slot fixes a
state count, a graph shape and an optional planted defect, so two seeds give
corpora of the same size and kind that differ only in their wiring.  Shape
matters because the reachability and productivity checks cost more or less
depending on graph depth and fan-out.

Every text uses the whole grammar: comments, enums, consts, vars, assigns,
preds, unit/boolean/enum decisions, mixed sessions, parameters, ratios, the
sugared branch form without an attribute block, and ``end`` states.

The generator does not import ``tsmon``: it records, from its own
construction, what the checks need to know about each spec (state and
transition counts, the planted rule), so the checks do not depend on the
code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

RULE_USEFUL_STATES = "USEFUL-STATES"
RULE_RATIO_SUM = "VALID-RATIO-SUM"
RULE_DECISIONS = "ENUMERATE-ALL-DECISIONS"

# Planted defect -> the rule `tsmon validate` must report for it.
DEFECT_RULES = {
    "unreachable": RULE_USEFUL_STATES,
    "unproductive": RULE_USEFUL_STATES,
    "ratio-sum": RULE_RATIO_SUM,
    "non-total-decision": RULE_DECISIONS,
}

# (states, shape, defect) per corpus entry, from about 25 to about 300
# states; about half are well-formed.  Chains, whose check cost varies most
# with the wiring, are kept small so that the corpus cost is steady across
# seeds; the 300-state spec takes about half of a pass.
CORPUS_SLOTS: tuple[tuple[int, str, Optional[str]], ...] = (
    (25, "chain", None),
    (30, "bushy", "unreachable"),
    (35, "chain", "ratio-sum"),
    (45, "tree", None),
    (55, "layered", "non-total-decision"),
    (70, "chain", None),
    (85, "bushy", "unproductive"),
    (100, "tree", None),
    (120, "layered", "ratio-sum"),
    (145, "bushy", None),
    (300, "layered", None),
)

# A reduced corpus for the smoke test.
SMOKE_SLOTS: tuple[tuple[int, str, Optional[str]], ...] = (
    (8, "chain", None),
    (10, "bushy", "unreachable"),
    (12, "tree", "unproductive"),
    (14, "layered", "ratio-sum"),
    (16, "tree", "non-total-decision"),
    (20, "layered", None),
)

_ENUMS = {"Res": ("ok", "retry", "fail"), "Mode": ("fast", "slow")}


@dataclass(frozen=True)
class GeneratedSpec:
    """One corpus entry and the facts the checks compare against."""

    name: str
    text: str
    states: int
    transitions: int  # distinct (state, action, value, next state) tuples
    shape: str
    defect: Optional[str]

    @property
    def rule(self) -> Optional[str]:
        return DEFECT_RULES.get(self.defect) if self.defect else None


@dataclass
class _Branch:
    action: str
    ret: str  # "unit", "boolean" or an enum name
    cases: list[tuple[str, str]]  # (outcome text, destination); outcome "" when plain
    ratio: Optional[float] = None
    pre: tuple[str, ...] = ()
    preds: tuple[str, ...] = ()
    post: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    is_input: bool = True


def _parents(rng: random.Random, n: int, shape: str) -> list[int]:
    """Spanning-tree parent of each state 1..n-1, always of lower index, so
    every state is reachable from state 0."""
    parents = [0]
    width = max(2, int(n ** 0.5))
    for i in range(1, n):
        if shape == "chain":
            parents.append(i - 1)
        elif shape == "tree":
            parents.append(rng.randrange(i))
        elif shape == "bushy":
            parents.append(rng.randrange(min(i, 1 + i // 16)))
        else:  # layered: a parent in the previous layer of `width` states
            layer = i // width
            lo = max(0, (layer - 1) * width)
            parents.append(rng.randrange(lo, min(i, layer * width) or 1))
    return parents


def _ratios(rng: random.Random, count: int, total: int = 8) -> list[float]:
    """``count`` (at most ``total``) positive multiples of 1/8 summing to
    total/8; dyadic, so the float sum is exact."""
    parts = [1] * count
    for _ in range(total - count):
        parts[rng.randrange(count)] += 1
    return [p / 8 for p in parts]


def _expr(rng: random.Random, target: str, names: list[str]) -> str:
    pick = rng.random()
    other = rng.choice(names)
    if pick < 0.4:
        return f"{target} + {rng.randint(1, 3)}"
    if pick < 0.6:
        return f"({target} - {other}) * 2"
    if pick < 0.8:
        return f"{other} - -1"
    return str(rng.randint(0, 9))


def generate_spec(seed: int, n_states: int, shape: str, defect: Optional[str], name: str) -> GeneratedSpec:
    rng = random.Random(seed)
    states = [f"S{i}" for i in range(n_states)]
    n_terminal = 1 + (n_states >= 60) + (n_states >= 200)
    first_terminal = n_states - n_terminal
    window = {"chain": 2, "tree": 6, "bushy": 12, "layered": max(2, int(n_states ** 0.5))}[shape]

    # Edges: spanning tree (reachability), one forward edge per non-terminal
    # state (productivity: every state reaches a higher index, and the
    # highest ones are terminal), plus random extra edges within the same
    # window that close cycles.
    edges: dict[str, list[str]] = {s: [] for s in states}
    for child, parent in enumerate(_parents(rng, n_states, shape)):
        if child == 0:
            continue
        if parent >= first_terminal:
            parent = rng.randrange(first_terminal)
        edges[states[parent]].append(states[child])
    for i in range(first_terminal):
        edges[states[i]].append(states[rng.randint(i + 1, min(n_states - 1, i + window))])
        for _ in range(rng.choice((0, 0, 1, 2))):
            edges[states[i]].append(states[rng.randint(max(0, i - window), min(n_states - 1, i + window))])

    consts = {"K0": rng.randint(1, 5), "K1": -rng.randint(1, 3), "K2": rng.randint(2, 9)}
    var_names = ["c0", "c1", "c2"]
    var_inits = {"c0": "K0", "c1": "0", "c2": "K2 * 2 + K1"}
    names = var_names + list(consts)
    assigns = {f"A{i}": (rng.choice(var_names), _expr(rng, var_names[i % 3], names)) for i in range(5)}
    preds = {
        "P0": "c0 >= K0",
        "P1": f"c1 != {rng.randint(0, 3)} && c0 < K2 * 4",
        "P2": "c2 = K2",
    }

    bodies: dict[str, list[_Branch]] = {}
    for state in states:
        dests = edges[state]
        rng.shuffle(dests)
        branches: list[_Branch] = []
        while dests:
            r = rng.random()
            action = f"m{len(branches)}"
            if r < 0.12 and len(dests) >= 3:
                labels = _ENUMS["Res"]
                branches.append(_Branch(action, "Res", [(lab, dests.pop()) for lab in labels]))
            elif r < 0.2 and len(dests) >= 2:
                branches.append(_Branch(action, "Mode", [(lab, dests.pop()) for lab in _ENUMS["Mode"]]))
            elif r < 0.38 and len(dests) >= 2:
                branches.append(_Branch(action, "boolean", [("true", dests.pop()), ("false", dests.pop())]))
            else:
                branches.append(_Branch(action, "unit", [("", dests.pop())]))
        for br in branches:
            br.is_input = rng.random() < 0.5
            if rng.random() < 0.1:
                br.params = tuple(rng.choice(("unit", "boolean", "Res")) for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.3:
                br.pre = tuple(rng.sample(list(assigns), rng.randint(1, 2)))
            if rng.random() < 0.2:
                br.preds = (rng.choice(list(preds)),)
            if rng.random() < 0.2:
                br.post = (rng.choice(list(assigns)),)
        if branches and rng.random() < 0.5:
            monitored = rng.sample(branches, rng.randint(1, min(8, len(branches))))
            for br, ratio in zip(monitored, _ratios(rng, len(monitored))):
                br.ratio = ratio
        bodies[state] = branches

    if defect == "unreachable":
        # A state that leads into the graph but that nothing leads to.
        ghost = "Ghost"
        bodies[ghost] = [_Branch("m0", "unit", [("", states[rng.randrange(n_states)])])]
        states.insert(rng.randint(1, len(states)), ghost)
    elif defect == "unproductive":
        # A reachable state that only loops on itself.
        trap = "Trap"
        host = states[rng.randrange(first_terminal)]
        bodies[host].append(_Branch(f"m{len(bodies[host])}", "unit", [("", trap)], is_input=False))
        bodies[trap] = [_Branch("spin", "unit", [("", trap)], is_input=False)]
        states.insert(rng.randint(1, len(states)), trap)
    elif defect == "ratio-sum":
        host = rng.choice([s for s in states if len(bodies[s]) >= 2])
        for br in bodies[host]:
            br.ratio = None
        bodies[host][0].ratio, bodies[host][1].ratio = 0.5, 0.25
    elif defect == "non-total-decision":
        host = states[rng.randrange(first_terminal)]
        target = states[rng.randrange(n_states)]
        bodies[host].append(
            _Branch(f"m{len(bodies[host])}", "Res", [("ok", target), ("fail", host)])
        )

    transitions = sum(len(br.cases) for s in states for br in bodies[s])
    text = _render(rng, name, states, bodies, consts, var_inits, assigns, preds)
    return GeneratedSpec(name, text, len(states), transitions, shape, defect)


def _branch_text(rng: random.Random, br: _Branch) -> str:
    if br.cases[0][0]:
        dest = "<" + ", ".join(f"{o}: {d}" for o, d in br.cases) + ">"
    else:
        dest = br.cases[0][1]
    head = f"{br.ret} {br.action}({', '.join(br.params)})"
    plain = br.ratio is None and not br.pre and not br.preds
    if plain and not br.post and rng.random() < 0.6:
        return f"{head} : {dest}"  # sugared form
    ratio = "_" if br.ratio is None else repr(br.ratio)
    attrs = f"[{ratio}; [{', '.join(br.pre)}]; [{', '.join(br.preds)}]]"
    post = f" [{', '.join(br.post)}]" if br.post or rng.random() < 0.5 else ""
    return f"{head} {attrs} : {dest}{post}"


def _render(rng, name, states, bodies, consts, var_inits, assigns, preds) -> str:
    lines = [f"// generated corpus spec {name}: {len(states)} states"]
    for enum, labels in _ENUMS.items():
        lines.append(f"enum {enum} {{ {', '.join(labels)} }}")
    lines += [f"const {k} = {v}" for k, v in consts.items()]
    lines += [f"var {k} = {v}" for k, v in var_inits.items()]
    lines += [f"assign {k}: {t} := {e}" for k, (t, e) in assigns.items()]
    lines += [f"pred {k}: {p}" for k, p in preds.items()]
    lines.append("")
    for state in states:
        branches = bodies[state]
        if rng.random() < 0.05:
            lines.append(f"// state {state}")
        if not branches:
            lines.append(f"state {state} = end")
            continue
        sessions = []
        for marker, is_input in (("!", False), ("?", True)):
            side = [b for b in branches if b.is_input == is_input]
            if side:
                sessions.append(marker + "{ " + ", ".join(_branch_text(rng, b) for b in side) + " }")
        lines.append(f"state {state} = " + "\n    + ".join(sessions))
    return "\n".join(lines) + "\n"


def generate_corpus(seed: int, slots=CORPUS_SLOTS) -> list[GeneratedSpec]:
    """One spec per slot; entry ``i`` is seeded from ``(seed, i)``."""
    master = random.Random(seed)
    return [
        generate_spec(master.randrange(1 << 62), n, shape, defect, f"spec{i:02d}")
        for i, (n, shape, defect) in enumerate(slots)
    ]
