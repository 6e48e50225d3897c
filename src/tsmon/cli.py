"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 validation diagnostics or
monitor deviations found, 2 usage or I/O errors, 3 parse errors.  Standard
output carries machine-readable results only; diagnostics go to stderr.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from enum import IntEnum
from pathlib import Path
from typing import NoReturn, Optional

import click

from . import monitor as monitor_mod
from . import semantics, simnet
from .dsl import ParseError, parse_protocol
from .model import ProtocolSpec
from .wellformed import Diagnostic, build_trs, export_dot, validate

__all__ = ["ExitStatus", "main"]


class ExitStatus(IntEnum):
    OK = 0
    FINDINGS = 1
    USAGE = 2
    PARSE = 3


def _fail(code: ExitStatus, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(int(code))


def _read_spec(path: str) -> ProtocolSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(ExitStatus.USAGE, f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(ExitStatus.USAGE, f"cannot read {path}: {exc}")
    try:
        return parse_protocol(text)
    except ParseError as exc:
        click.echo(
            f"parse error ({exc.kind}): {path}:{exc.span.line}:{exc.span.column}: {exc.message}",
            err=True,
        )
        sys.exit(int(ExitStatus.PARSE))


def _print_diagnostics(path: str, diags: list[Diagnostic]) -> None:
    for d in diags:
        line = d.span.line if d.span else 0
        col = d.span.column if d.span else 0
        click.echo(f"{d.rule} {path}:{line}:{col} {d.message()}", err=True)


def _read_valid_spec(path: str) -> ProtocolSpec:
    """Read a spec that must pass ``validate``; print its diagnostics and
    exit 1 when it does not, and exit 2 when an initial value cannot be
    evaluated (it leaves the int64 range)."""
    spec = _read_spec(path)
    diags = validate(spec)
    if diags:
        _print_diagnostics(path, diags)
        sys.exit(int(ExitStatus.FINDINGS))
    try:
        semantics.initial_config(spec)
    except semantics.EvalError as exc:
        _fail(ExitStatus.USAGE, f"{path}: initial values: {exc}")
    return spec


@click.group()
def main() -> None:
    """Parse, validate, simulate and monitor probabilistic typestates."""


@main.command(name="validate")
@click.argument("spec_path", type=click.Path())
def validate_cmd(spec_path: str) -> None:
    """Check a .tsp spec against all well-formedness and transition rules."""
    _read_valid_spec(spec_path)
    sys.exit(int(ExitStatus.OK))


@main.command()
@click.argument("spec_path", type=click.Path())
@click.option("--dot", "dot_path", type=click.Path(), default=None, help="Write DOT here instead of stdout.")
def graph(spec_path: str, dot_path: Optional[str]) -> None:
    """Export a validated spec's transition graph as Graphviz DOT."""
    spec = _read_valid_spec(spec_path)
    dot = export_dot(spec, build_trs(spec))
    if dot_path is None:
        click.echo(dot, nl=False)
    else:
        try:
            Path(dot_path).write_text(dot, encoding="utf-8")
        except OSError as exc:
            _fail(ExitStatus.USAGE, f"cannot write {dot_path}: {exc.strerror or exc}")
    sys.exit(int(ExitStatus.OK))


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("TSMON_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail(ExitStatus.USAGE, f"TSMON_SEED is not an integer: {env!r}")
    return 0


@main.command()
@click.argument("protocol", type=click.Choice(["abp", "bitvote"]))
@click.option("--seed", type=int, default=None, help="PRNG seed (default: $TSMON_SEED or 0).")
@click.option("--drop", type=float, default=0.0, help="Per-send drop probability in [0, 1).")
@click.option("--dup", type=float, default=0.0, help="Per-send duplication probability in [0, 1).")
@click.option("--rounds", type=int, default=10, help="Bit emissions (abp) or voting rounds (bitvote).")
@click.option("--n", "n_peers", type=int, default=2, help="Peer count (bitvote).")
@click.option("--k", "retry_budget", type=int, default=5, help="Vote requests per round (bitvote).")
@click.option("--ack-rate", type=float, default=1.0, help="Receiver ack probability (abp lazy variant).")
@click.option("--out", "out_dir", type=click.Path(), default=".", help="Directory for traces and manifest.")
def simulate(
    protocol: str,
    seed: Optional[int],
    drop: float,
    dup: float,
    rounds: int,
    n_peers: int,
    retry_budget: int,
    ack_rate: float,
    out_dir: str,
) -> None:
    """Run a protocol simulation and write per-participant JSONL traces."""
    net = dict(seed=_resolve_seed(seed), drop_prob=drop, dup_prob=dup)
    try:
        if protocol == "abp":
            run = simnet.run_abp(
                simnet.AbpConfig(
                    net=simnet.NetConfig(**net), rounds=rounds, ack_prob=ack_rate
                )
            )
        else:
            run = simnet.run_bitvote(
                simnet.BitVoteConfig(
                    net=simnet.NetConfig(**net),
                    n=n_peers,
                    k=retry_budget,
                    voting_rounds=rounds,
                )
            )
    except ValueError as exc:
        _fail(ExitStatus.USAGE, str(exc))
    try:
        manifest = simnet.write_run(run, out_dir)
    except OSError as exc:
        _fail(ExitStatus.USAGE, f"cannot write to {out_dir}: {exc.strerror or exc}")
    click.echo(json.dumps(manifest, sort_keys=True))
    sys.exit(int(ExitStatus.OK))


@main.command(name="monitor")
@click.argument("spec_path", type=click.Path())
@click.option("--trace", "trace_path", type=click.Path(), required=True, help="JSONL event trace to replay.")
@click.option("--error", "error_bound", type=float, default=0.1, help="Confidence-interval half width.")
@click.option("--warmup", type=int, default=10, help="Suppress verdicts below this execution count.")
@click.option("--log", "log_path", type=click.Path(), default=None, help="Write the JSONL log here instead of stdout.")
def monitor_cmd(
    spec_path: str,
    trace_path: str,
    error_bound: float,
    warmup: int,
    log_path: Optional[str],
) -> None:
    """Replay a trace against a spec and report ratio deviations."""
    spec = _read_valid_spec(spec_path)
    try:
        conf = monitor_mod.MonitorConfig(error_bound=error_bound, warmup=warmup)
    except ValueError as exc:
        _fail(ExitStatus.USAGE, str(exc))
    try:
        events = monitor_mod.read_trace(trace_path)
    except OSError as exc:
        _fail(ExitStatus.USAGE, f"cannot read {trace_path}: {exc.strerror or exc}")
    except (ValueError, KeyError) as exc:
        # ValueError covers invalid JSON, non-object lines and non-UTF-8 bytes.
        _fail(ExitStatus.USAGE, f"malformed trace {trace_path}: {exc}")
    result = monitor_mod.run_trace(spec, conf, events)
    if log_path is None:
        monitor_mod.write_log(sys.stdout, result.log)
    else:
        try:
            monitor_mod.write_log(log_path, result.log)
        except OSError as exc:
            _fail(ExitStatus.USAGE, f"cannot write {log_path}: {exc.strerror or exc}")
    verdicts = Counter(e.verdict for e in result.log)
    deviations = (
        verdicts[monitor_mod.VERDICT_DEVIATION_LOW] + verdicts[monitor_mod.VERDICT_DEVIATION_HIGH]
    )
    illegal = verdicts[monitor_mod.VERDICT_ILLEGAL]
    summary = {
        "events": len(events),
        "monitored": len(result.log) - illegal,
        "ok": verdicts[monitor_mod.VERDICT_OK],
        "warmup": verdicts[monitor_mod.VERDICT_WARMUP],
        "deviations": deviations,
        "illegal": illegal,
    }
    out = sys.stderr if log_path is None else sys.stdout
    click.echo(json.dumps(summary, sort_keys=True), file=out)
    sys.exit(int(ExitStatus.FINDINGS if deviations or illegal else ExitStatus.OK))


if __name__ == "__main__":
    main()
