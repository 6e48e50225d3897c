"""tsmon: probabilistic typestates with internal state, mixed sessions and
runtime ratio monitoring, plus simulators for two distributed protocols."""

from .dsl import ParseError, parse_protocol, serialize_protocol
from .model import (
    ActionSignature,
    Branch,
    DecisionDest,
    InternalStateDecl,
    PlainDest,
    ProtocolSpec,
    SourceSpan,
    StateBody,
    TypeRef,
    Typestate,
)
from .monitor import LogEntry, Monitor, MonitorConfig, MonitorRun, MTInfo, TraceEvent, run_trace
from .semantics import StepOutcome, TInfo, VarStore, initial_config, step
from .simnet import AbpConfig, BitVoteConfig, NetConfig, run_abp, run_bitvote
from .wellformed import (
    Diagnostic,
    TransitionSet,
    build_trs,
    check_transition_rules,
    check_well_formed,
    export_dot,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSignature",
    "AbpConfig",
    "BitVoteConfig",
    "Branch",
    "DecisionDest",
    "Diagnostic",
    "InternalStateDecl",
    "LogEntry",
    "MTInfo",
    "Monitor",
    "MonitorConfig",
    "MonitorRun",
    "NetConfig",
    "ParseError",
    "PlainDest",
    "ProtocolSpec",
    "SourceSpan",
    "StateBody",
    "StepOutcome",
    "TInfo",
    "TraceEvent",
    "TransitionSet",
    "TypeRef",
    "Typestate",
    "VarStore",
    "build_trs",
    "check_transition_rules",
    "check_well_formed",
    "export_dot",
    "initial_config",
    "parse_protocol",
    "run_abp",
    "run_bitvote",
    "run_trace",
    "serialize_protocol",
    "step",
    "validate",
]
