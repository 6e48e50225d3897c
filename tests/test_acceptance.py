"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value below is either hand-computed from the rules or
produced by an independent brute-force oracle in this file or specgen.
"""

import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from tsmon import specs
from tsmon.cli import main
from tsmon.dsl import ParseError, parse_protocol
from tsmon.model import PlainDest
from tsmon.monitor import MonitorConfig, TraceEvent, run_trace
from tsmon.semantics import initial_config, step
from tsmon.simnet import AbpConfig, NetConfig, run_abp
from tsmon.wellformed import build_trs, is_productive, is_reachable, validate

from specgen import fixpoint_productive, fixpoint_reachable, random_wellformed_spec

CORE_SPECS = ("sender", "receiver", "leader", "peer", "auth")


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, f"took {self.elapsed:.2f}s, limit {self.limit}s"


def _cli(args, **kwargs):
    result = CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)
    return result


# Criterion 1 -- the five core example typestates validate cleanly and ten
# documented single-token mutations each produce exactly the expected
# diagnostic.  Parse-level mutations are identified by the ParseError kind,
# rule-level mutations by the diagnostic rule identifier.

_RECEIVER = specs.source("receiver")
_AUTH = specs.source("auth")
_LEADER = specs.source("leader")
_SENDER = specs.source("sender")

MUTATIONS = [
    # (name, mutated source, expected parse-error kind or None, expected rules)
    (
        "duplicate state name",
        _RECEIVER.replace("state R1 =", "state R0 =", 1),
        "duplicate",
        None,
    ),
    (
        "ratio sum below one",
        _RECEIVER.replace("?{ unit msg() [0.5", "?{ unit msg() [0.4", 1),
        None,
        ["VALID-RATIO-SUM"],
    ),
    (
        "decision misses an enum label",
        _AUTH.replace("enum LoginResult { success, failure }",
                      "enum LoginResult { success, pending }", 1),
        None,
        ["ENUMERATE-ALL-DECISIONS"],
    ),
    (
        "unreachable state",
        _SENDER.replace("state S0 = !{ unit msg() : S1 }",
                        "state S0 = !{ unit msg() : S0 }", 1),
        None,
        ["USEFUL-STATES"],
    ),
    (
        "undeclared assignment key",
        _LEADER.replace("[0.5; [A1]; [P1]]", "[0.5; [A9]; [P1]]", 1),
        "reference",
        None,
    ),
    (
        "empty-ratio marker in a decision map",
        _AUTH.replace("<success: Auth, failure: Unauth>",
                      "<_: Auth, failure: Unauth>", 1),
        "syntax",
        None,
    ),
    (
        "ratio literal above one",
        _RECEIVER.replace("!{ unit ack() [0.5", "!{ unit ack() [1.5", 1),
        "range",
        None,
    ),
    (
        "duplicate action in a state",
        _SENDER.replace("?{ unit ack() : S0 }", "?{ unit msg() : S0 }", 1),
        "duplicate",
        None,
    ),
    (
        "duplicate decision outcome",
        _AUTH.replace("failure: Unauth", "success: Unauth", 1),
        "duplicate",
        None,
    ),
    (
        "decision on a unit-returning action",
        _AUTH.replace("LoginResult login()", "unit login()", 1),
        None,
        ["ENUMERATE-ALL-DECISIONS"],
    ),
]


def test_criterion_1_example_corpus_and_mutations():
    with _Timer(1.0):
        for name in CORE_SPECS:
            assert validate(specs.load(name)) == [], f"{name} should be clean"
        assert len(MUTATIONS) == 10
        for label, source, parse_kind, rules in MUTATIONS:
            if parse_kind is not None:
                with pytest.raises(ParseError) as info:
                    parse_protocol(source)
                assert info.value.kind == parse_kind, label
            else:
                diags = validate(parse_protocol(source))
                assert [d.rule for d in diags] == rules, label
    print("PASS criterion 1: example corpus validates; 10 mutations each flagged")


def test_criterion_2_transition_set_oracle():
    with _Timer(5.0):
        assert build_trs(specs.load("sender")) == {
            ("S0", "msg", None, "S1"),
            ("S1", "msg", None, "S1"),
            ("S1", "ack", None, "S0"),
        }
        assert build_trs(specs.load("auth")) == {
            ("Unauth", "login", "success", "Auth"),
            ("Unauth", "login", "failure", "Unauth"),
            ("Auth", "logoff", None, "Unauth"),
        }
        for seed in range(200):
            spec = random_wellformed_spec(seed)
            trs = build_trs(spec)
            expected = sum(
                1 if isinstance(br.dest, PlainDest) else len(br.dest.cases)
                for body in spec.typestate.states.values()
                for br in body.branches()
            )
            assert len(trs) == expected
            start = spec.typestate.start
            reachable = fixpoint_reachable(trs, start)
            productive = fixpoint_productive(trs, spec.typestate.states)
            for state in spec.typestate.states:
                assert is_reachable(state, trs, start) == (state in reachable)
                assert is_productive(state, trs) == (state in productive)
    print("PASS criterion 2: Trs sets exact; 200 random specs match fixpoint oracles")


def test_criterion_3_semantics_trace():
    spec = specs.load("counting")
    cfg = initial_config(spec)
    assert (cfg.state, dict(cfg.store.vars)) == ("S0", {"acks": 0})
    first = step(spec, cfg, "m")
    assert (first.next.state, dict(first.next.store.vars)) == ("S0", {"acks": 1})
    second = step(spec, first.next, "m")
    assert (second.next.state, dict(second.next.store.vars)) == ("S1", {"acks": 0})
    assert [first.triggered, second.triggered] == [False, True]
    print("PASS criterion 3: two-receipt trace matches exactly")


def test_criterion_4_leader_trajectories():
    spec = specs.load("leader")
    cfg = initial_config(spec)
    triggered_to_l2 = None
    for _ in range(5):
        out = step(spec, cfg, "vreq")
        cfg = out.next
        triggered_to_l2 = out.triggered and cfg.state == "L2"
    assert cfg.state == "L2" and triggered_to_l2
    assert dict(cfg.store.vars) == {"acks": 0, "retries": 5}

    cfg = initial_config(spec)
    for action in ("vreq", "vack", "vack"):
        cfg = step(spec, cfg, action).next
    assert cfg.state == "L2"
    assert dict(cfg.store.vars) == {"acks": 0, "retries": 5}
    print("PASS criterion 4: retry-exhaustion and quorum trajectories exact")


def test_criterion_5_monitoring_formula():
    spec = specs.load("receiver")
    events = [TraceEvent("r", "msg", "in", None, 0)]
    for i in range(1, 13):
        action = "msg" if i % 2 else "ack"
        events.append(TraceEvent("r", action, "in" if i % 2 else "out", None, i))
    result = run_trace(spec, MonitorConfig(error_bound=0.25, warmup=0), events)

    # Independent oracle: plain counters, exact rational arithmetic.
    n = 0
    counts = {"msg": 0, "ack": 0}
    expected_mu_hat = []
    expected_verdicts = []
    for ev in events[1:]:
        mu_hat = Fraction(counts[ev.action] + 1, n + 1)
        expected_mu_hat.append(float(mu_hat))
        low, high = Fraction(1, 4), Fraction(3, 4)
        if mu_hat < low:
            expected_verdicts.append("deviation_low")
        elif mu_hat > high:
            expected_verdicts.append("deviation_high")
        else:
            expected_verdicts.append("ok")
        counts[ev.action] += 1
        n += 1

    assert expected_mu_hat[:6] == [1.0, 0.5, 2 / 3, 0.5, 3 / 5, 0.5]
    assert [e.observed for e in result.log] == expected_mu_hat
    assert [e.verdict for e in result.log] == expected_verdicts

    # Bounds are closed: mu 0.5 with E exactly 0.5 puts the first observation
    # (1.0) on the upper bound, which must verdict ok.
    boundary = run_trace(spec, MonitorConfig(error_bound=0.5, warmup=0), events[:2])
    assert boundary.log[0].observed == 1.0
    assert boundary.log[0].verdict == "ok"
    print("PASS criterion 5: observed ratios and verdicts match the hand oracle")


def test_criterion_6_end_to_end_faithful(tmp_path):
    with _Timer(10.0):
        out = tmp_path / "run"
        result = _cli(
            ["simulate", "abp", "--rounds", "200", "--drop", "0.2", "--seed", "42",
             "--out", str(out)],
        )
        assert result.exit_code == 0
        log_path = tmp_path / "receiver.log"
        result = _cli(
            ["monitor", str(specs.spec_path("receiver")), "--trace",
             str(out / "receiver.jsonl"), "--error", "0.1", "--warmup", "20",
             "--log", str(log_path)],
        )
        assert result.exit_code == 0, result.stderr
        entries = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert all(e["verdict"] != "illegal" for e in entries)
        scored = [e for e in entries if e["verdict"] != "warmup"]
        deviating = [e for e in scored if e["verdict"].startswith("deviation")]
        assert len(deviating) / len(scored) < 0.05
    print("PASS criterion 6: faithful receiver shows no illegal entries, deviations under 5%")


def test_criterion_7_deviation_detection(tmp_path):
    receiver = specs.load("receiver")
    conf = MonitorConfig(error_bound=0.1, warmup=20)
    for seed in range(1, 21):
        run = run_abp(
            AbpConfig(net=NetConfig(seed=seed, drop_prob=0.2), rounds=200, ack_prob=0.6)
        )
        result = run_trace(receiver, conf, run.traces["receiver"])
        first_200 = result.log[:200]
        assert any(
            e.action == "ack" and e.verdict == "deviation_low" for e in first_200
        ), f"seed {seed} produced no deviation_low for ack"
    print("PASS criterion 7: lazy receiver flagged for every seed in 1..20")


def test_criterion_8_epsilon_opacity(tmp_path):
    out = tmp_path / "run"
    result = _cli(["simulate", "bitvote", "--seed", "5", "--rounds", "8", "--out", str(out)])
    assert result.exit_code == 0
    peer = specs.load("peer")
    conf = MonitorConfig()
    from tsmon.monitor import read_trace

    events = read_trace(out / "peer0.jsonl")
    assert any(e.action == "vwb" for e in events)
    full = run_trace(peer, conf, events)
    assert all(e.action != "vwb" for e in full.log)
    filtered = run_trace(peer, conf, [e for e in events if e.action != "vwb"])
    assert full.log == filtered.log
    print("PASS criterion 8: vwb is unmonitored and its removal leaves the log unchanged")


def test_criterion_9_determinism(tmp_path):
    seeds = ["--seed", "11", "--drop", "0.3", "--rounds", "40"]
    for sub in ("a", "b"):
        result = _cli(["simulate", "abp", *seeds, "--out", str(tmp_path / sub)])
        assert result.exit_code == 0
    for name in ("sender.jsonl", "receiver.jsonl", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for sub in ("la", "lb"):
        result = _cli(
            ["monitor", str(specs.spec_path("receiver")), "--trace",
             str(tmp_path / "a" / "receiver.jsonl"), "--log", str(tmp_path / f"{sub}.log")],
        )
        assert result.exit_code == 0
    assert (tmp_path / "la.log").read_bytes() == (tmp_path / "lb.log").read_bytes()
    print("PASS criterion 9: repeated simulate and monitor runs are byte-identical")
