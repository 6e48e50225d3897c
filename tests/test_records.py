"""The record classes: immutable, compared and hashed by their fields, with
the reprs the frozen dataclasses they replaced printed, and no
``dataclasses`` import on the way to a command."""

import copy
import hashlib
import pickle
import subprocess
import sys

import pytest

from tsmon import specs
from tsmon.model import (
    ActionSignature,
    Assignment,
    BinOp,
    Branch,
    Comparison,
    DecisionDest,
    IntLit,
    InternalStateDecl,
    Name,
    PlainDest,
    Predicate,
    ProtocolSpec,
    Record,
    SourceSpan,
    StateBody,
    TypeRef,
    Typestate,
)
from tsmon.monitor import MonitorConfig, MTInfo
from tsmon.semantics import StepOutcome, TInfo, VarStore
from tsmon.simnet import AbpConfig, BitVoteConfig, NetConfig, SimRun, run_abp
from tsmon.wellformed import Diagnostic

from conftest import subprocess_env


def _records(span=SourceSpan(3, 5, 2)):
    """One record of each class; two calls give equal records, none shared
    but the spans."""
    x_lt_2 = Comparison("<", Name("x"), IntLit(2))
    inc = Assignment("x", BinOp("+", Name("x"), IntLit(1)))
    branch = Branch(
        ActionSignature("login", (), TypeRef("enum", "Result")), 0.5, ("A1",), ("P1",),
        DecisionDest((("ok", "S1"), ("no", "S0"))), (), span,
    )
    body = StateBody((branch,), (Branch(ActionSignature("stop"), None, (), (), PlainDest("S0")),))
    typestate = Typestate({"S0": body, "S1": StateBody()}, {"S0": span})
    internal = InternalStateDecl(
        {"N": 3}, {"x": IntLit(0)}, {"A1": inc}, {"P1": Predicate((x_lt_2,))}, {"Result": ("ok", "no")}
    )
    store = VarStore({"x": 1}, {"N": 3})
    net = NetConfig(7, 0.2, 0.1, 2, 1)
    return [
        span, x_lt_2, inc, branch, body, typestate, internal, ProtocolSpec(typestate, internal),
        TInfo("S0", store), StepOutcome(TInfo("S1", store), True, branch, True),
        MonitorConfig(0.05, {("S0", "login"): 0.2}, 5), MTInfo("S1", store, {"S0": 2}, {("S0", "login"): 1}),
        AbpConfig(net, 3, 4, 0.7), BitVoteConfig(net, 3, 2, 4, 6, 0.5),
        SimRun("abp", {"sender": ()}, 4, False, AbpConfig(net)),
        Diagnostic("VALID-RATIO-SUM", "S0", "login", "ratios sum to 0.9", span),
    ]


def _nested(record):
    """``record`` and every record reachable through its fields."""
    found, stack = [], [record]
    while stack:
        value = stack.pop()
        if isinstance(value, Record):
            found.append(value)
            stack += [getattr(value, name) for name in value.__slots__]
        elif isinstance(value, dict):
            stack += value.values()
        elif isinstance(value, tuple):
            stack += value
    return found


RECORDS = [r for top in _records() for r in _nested(top)]
TWINS = [r for top in _records() for r in _nested(top)]
CLASSES = {type(r): (r, twin) for r, twin in zip(RECORDS, TWINS)}
FROZEN = [pair for cls, pair in CLASSES.items() if cls is not SimRun]
# The classes whose fields are all hashable; the others raise TypeError.
HASHABLE = {
    SourceSpan, IntLit, Name, BinOp, Comparison, Predicate, Assignment, TypeRef, ActionSignature,
    PlainDest, DecisionDest, Branch, StateBody, NetConfig, AbpConfig, BitVoteConfig, Diagnostic,
}


def _ids(pairs):
    return [type(r).__name__ for r, _ in pairs]


def test_every_record_class_is_covered():
    assert set(CLASSES) == set(Record.__subclasses__())
    assert len(CLASSES) == 26


@pytest.mark.parametrize("record, _twin", FROZEN, ids=_ids(FROZEN))
def test_fields_cannot_be_assigned_or_deleted(record, _twin):
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, twin", CLASSES.values(), ids=_ids(CLASSES.values()))
def test_equal_records_hash_equal(record, twin):
    assert record == twin and not record != twin
    if type(record) in HASHABLE:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("record, _twin", CLASSES.values(), ids=_ids(CLASSES.values()))
def test_another_class_is_never_equal(record, _twin):
    fields = tuple(getattr(record, name) for name in record.__slots__)
    assert record.__eq__(fields) is NotImplemented
    assert record != fields and fields != record
    other = SimRun if type(record) is not SimRun else Diagnostic
    assert record.__eq__(CLASSES[other][0]) is NotImplemented and record != CLASSES[other][0]


def test_a_field_of_another_value_breaks_equality():
    assert PlainDest("S1") != PlainDest("S2")
    assert PlainDest("S1") != Name("S1")
    assert NetConfig(seed=1) != NetConfig(seed=2)
    assert TypeRef("boolean") != TypeRef("unit")


def test_spans_do_not_count_in_equality():
    here, there = _records(SourceSpan(1, 1, 1)), _records(SourceSpan(9, 9, 9))
    for one, two in zip(here[1:], there[1:]):  # all but the spans themselves
        assert one == two
        if type(one) in HASHABLE:
            assert hash(one) == hash(two)
    branch, typestate, diagnostic = there[3], there[5], there[-1]
    assert "span" not in repr(branch) and "span" not in repr(typestate)
    assert repr(diagnostic).endswith("span=SourceSpan(line=9, column=9, length=9))")


def test_simrun_stays_mutable_and_unhashable():
    run, twin = CLASSES[SimRun]
    run = copy.copy(run)
    run.ticks += 1
    assert run.ticks == 5 and run != twin
    del run.ticks
    with pytest.raises(TypeError, match="unhashable"):
        hash(twin)


@pytest.mark.parametrize("record, _twin", CLASSES.values(), ids=_ids(CLASSES.values()))
def test_pickle_and_copy_give_equal_records(record, _twin):
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_factory_defaults_are_new_objects():
    assert InternalStateDecl().consts is not InternalStateDecl().consts
    assert MonitorConfig().per_action_error is not MonitorConfig().per_action_error
    assert AbpConfig().net == NetConfig() and AbpConfig().net is not AbpConfig().net
    spec = ProtocolSpec(Typestate({"S0": StateBody()}))
    assert spec.internal == InternalStateDecl() and spec.typestate.state_spans == {}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of the reprs the frozen dataclasses printed.
REPR_SHA256 = {
    "sender": "611b54ce5c1bea0b0e9cb8baa82e72eaee24dacda81e74c46a40a9abbdd54709",
    "receiver": "a8ab3d38d903de176d09f78073ccb8a30e5e448eae064db3b581724d864d45a1",
    "leader": "c27c7f3f175f0ab5ba28a082b803784797765a623cbdf100c56f63ac10555daf",
    "peer": "af60df03028b066af5c5c43f2fbbe37cd648ab967c773643564e2766fc7b97c6",
    "auth": "6b8d09729cd2272ea7c9f2736fff56c032e1485423a291c2be6b5cb1ba14825a",
    "counting": "0eb7962de993880675d0228f220a9304bd6c6e92a6b713eed5628e065bd94d8f",
    "Diagnostic": "0dc722cb1a38173e8bf471c5b9d27941b53e2a0c59c5d1dabe6163cc614e4391",
    "MonitorConfig": "7f1fc5a24813a2d03f3e2e0275b81a66df5fcec605db3dd023827928a5f0bc53",
    "AbpConfig": "27a0560086bfc777cd1d975d067b43731b783019e057d7f26562be90f2cc9f3e",
    "MTInfo": "b020d96f189c2a8b47c54403131c9db6bb267113c0a1b60d50ff2733c25c0d18",
    "SimRun": "7fa0c9cbea65b015f584bdaf5753f7398210cd9b8ed3532c918f118dd674742c",
}


def test_reprs_are_the_dataclass_reprs():
    objs = {name: specs.load(name) for name in specs.BUNDLED}
    objs["Diagnostic"] = Diagnostic("VALID-RATIO-SUM", "R0", "msg", "ratios sum to 0.9", SourceSpan(3, 5, 2))
    objs["MonitorConfig"] = MonitorConfig(0.05, {("R0", "msg"): 0.2}, 5)
    objs["AbpConfig"] = AbpConfig(NetConfig(7, 0.2, 0.1, 2, 1), 3, 4, 0.7)
    objs["MTInfo"] = MTInfo("R1", VarStore({"x": 1}, {"N": 3}), {"R0": 2}, {("R0", "msg"): 1})
    objs["SimRun"] = run_abp(AbpConfig(NetConfig(seed=1), rounds=2))
    assert {name: _sha(obj) for name, obj in objs.items()} == REPR_SHA256
    assert repr(objs["Diagnostic"]) == (
        "Diagnostic(rule='VALID-RATIO-SUM', state='R0', action='msg', detail='ratios sum to 0.9',"
        " span=SourceSpan(line=3, column=5, length=2))"
    )


def test_the_find_index_is_left_out_of_the_record():
    filled, fresh = specs.load("leader").typestate, specs.load("leader").typestate
    pairs = [(state, br.action.name) for state, body in fresh.states.items() for br in body.branches()]
    pairs += [("L1", "nope"), ("Nowhere", "vreq")]
    found = {pair: filled.find(*pair) for pair in pairs}
    assert found[("L1", "vack")] == (fresh.states["L1"].in_branches[0], True)
    assert found[("L1", "vreq")] == (fresh.states["L1"].out_branches[0], False)
    assert found[("L1", "nope")] is None and found[("Nowhere", "vreq")] is None
    assert filled == fresh and repr(filled) == repr(fresh)
    assert _sha(ProtocolSpec(filled, specs.load("leader").internal)) == REPR_SHA256["leader"]
    with pytest.raises(TypeError, match="unhashable"):  # its states are a dict
        hash(filled)
    assert pickle.dumps(filled) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(filled)), copy.copy(filled), copy.deepcopy(filled)):
        assert twin == filled and repr(twin) == repr(filled)
        assert {pair: twin.find(*pair) for pair in pairs} == found


def _imported(*args):
    """Names of the modules ``python -X importtime ARGS`` imports."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=subprocess_env(), check=False,
    )
    assert run.returncode == 0, run.stderr
    lines = [line for line in run.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


@pytest.mark.parametrize(
    "args",
    [["-c", "import tsmon.cli"], ["-m", "tsmon.cli", "validate", str(specs.spec_path("receiver"))]],
    ids=["import", "validate"],
)
def test_the_cli_imports_no_dataclasses(args):
    # Against a bare interpreter, so a site hook that imports them cannot
    # fail the test.
    added = _imported(*args) - _imported("-c", "pass")
    assert "tsmon.model" in added
    assert added.isdisjoint({"dataclasses", "inspect"}), sorted(added & {"dataclasses", "inspect"})
