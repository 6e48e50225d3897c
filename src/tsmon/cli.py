"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 validation diagnostics or
monitor deviations found, 2 usage or I/O errors, 3 parse errors.  Standard
output carries machine-readable results only; diagnostics go to stderr.

``main`` pauses the cyclic garbage collector while its command runs: no
command builds reference cycles that grow with its input, so reference
counting frees what it makes.  The pause is process-wide, so it reaches any
other thread of a host process; the library functions never pause it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from enum import IntEnum
from pathlib import Path
from typing import Iterator, NoReturn, Optional

from . import monitor as monitor_mod
from . import semantics, simnet
from .dsl import ParseError, parse_protocol
from .model import ProtocolSpec
from .wellformed import build_trs, export_dot, validate

__all__ = ["ExitStatus", "main"]


class ExitStatus(IntEnum):
    OK = 0
    FINDINGS = 1
    USAGE = 2
    PARSE = 3


def _fail(code: ExitStatus, message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(int(code))


def _read_valid_spec(path: str) -> ProtocolSpec:
    """Read a spec that must pass ``validate``.  Exit 2 when it cannot be
    read, 3 when it does not parse, 1 with its diagnostics when it breaks a
    rule, and 2 when an initial value leaves the int64 range."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(ExitStatus.USAGE, f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _fail(ExitStatus.USAGE, f"cannot read {path}: {exc}")
    try:
        spec = parse_protocol(text)
    except ParseError as exc:
        where = f"{path}:{exc.span.line}:{exc.span.column}"
        print(f"parse error ({exc.kind}): {where}: {exc.message}", file=sys.stderr)
        sys.exit(int(ExitStatus.PARSE))
    diags = validate(spec)
    for d in diags:
        line, col = (d.span.line, d.span.column) if d.span else (0, 0)
        print(f"{d.rule} {path}:{line}:{col} {d.message()}", file=sys.stderr)
    if diags:
        sys.exit(int(ExitStatus.FINDINGS))
    try:
        semantics.initial_config(spec)
    except semantics.EvalError as exc:
        _fail(ExitStatus.USAGE, f"{path}: initial values: {exc}")
    return spec


def validate_cmd(spec_path: str) -> ExitStatus:
    """Check a .tsp spec against all well-formedness and transition rules."""
    _read_valid_spec(spec_path)
    return ExitStatus.OK


def graph(spec_path: str, dot_path: Optional[str]) -> ExitStatus:
    """Export a validated spec's transition graph as Graphviz DOT."""
    spec = _read_valid_spec(spec_path)
    dot = export_dot(spec, build_trs(spec))
    if dot_path is None:
        sys.stdout.write(dot)
    else:
        try:
            Path(dot_path).write_text(dot, encoding="utf-8")
        except OSError as exc:
            _fail(ExitStatus.USAGE, f"cannot write {dot_path}: {exc.strerror or exc}")
    return ExitStatus.OK


def simulate(
    protocol: str, seed: Optional[int], drop: float, dup: float, rounds: int,
    n_peers: int, retry_budget: int, ack_rate: float, out_dir: str,
) -> ExitStatus:
    """Run a protocol simulation and write per-participant JSONL traces."""
    if seed is None:
        env = os.environ.get("TSMON_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            _fail(ExitStatus.USAGE, f"TSMON_SEED is not an integer: {env!r}")
    try:
        net = simnet.NetConfig(seed=seed, drop_prob=drop, dup_prob=dup)
        if protocol == "abp":
            run = simnet.run_abp(simnet.AbpConfig(net=net, rounds=rounds, ack_prob=ack_rate))
        else:
            config = simnet.BitVoteConfig(net=net, n=n_peers, k=retry_budget, voting_rounds=rounds)
            run = simnet.run_bitvote(config)
    except ValueError as exc:
        _fail(ExitStatus.USAGE, str(exc))
    try:
        manifest = simnet.write_run(run, out_dir)
    except OSError as exc:
        _fail(ExitStatus.USAGE, f"cannot write to {out_dir}: {exc.strerror or exc}")
    print(json.dumps(manifest, sort_keys=True))
    return ExitStatus.OK


def monitor_cmd(
    spec_path: str, trace_path: str, error_bound: float, warmup: int, log_path: Optional[str]
) -> ExitStatus:
    """Replay a trace against a spec and report ratio deviations."""
    spec = _read_valid_spec(spec_path)
    try:
        conf = monitor_mod.MonitorConfig(error_bound=error_bound, warmup=warmup)
    except ValueError as exc:
        _fail(ExitStatus.USAGE, str(exc))
    try:
        trace = open(trace_path, encoding="utf-8")
    except OSError as exc:
        _fail(ExitStatus.USAGE, f"cannot read {trace_path}: {exc.strerror or exc}")
    with trace:
        # The log is written while the trace is read, so it cannot replace it.
        if log_path is not None and os.path.isfile(log_path) and os.path.samefile(log_path, trace_path):
            _fail(ExitStatus.USAGE, f"cannot write {log_path}: it is the trace")

        def lines() -> Iterator[str]:
            try:
                yield from trace
            except OSError as exc:
                _fail(ExitStatus.USAGE, f"cannot read {trace_path}: {exc.strerror or exc}")

        log = monitor_mod.LogLines(monitor_mod.Monitor(spec, conf), lines())
        try:
            if log_path is None:
                monitor_mod.write_log(sys.stdout, log)
            else:
                try:
                    monitor_mod.write_log(log_path, log)
                except OSError as exc:
                    _fail(ExitStatus.USAGE, f"cannot write {log_path}: {exc.strerror or exc}")
        except ValueError as exc:
            # Invalid JSON, non-object lines, missing or ill-typed fields and non-UTF-8 bytes.
            _fail(ExitStatus.USAGE, f"malformed trace {trace_path}: {exc}")
    verdicts = log.verdicts
    deviations = (
        verdicts[monitor_mod.VERDICT_DEVIATION_LOW] + verdicts[monitor_mod.VERDICT_DEVIATION_HIGH]
    )
    illegal = verdicts[monitor_mod.VERDICT_ILLEGAL]
    summary = {
        "events": log.events,
        "monitored": verdicts.total() - illegal,
        "ok": verdicts[monitor_mod.VERDICT_OK],
        "warmup": verdicts[monitor_mod.VERDICT_WARMUP],
        "deviations": deviations,
        "illegal": illegal,
    }
    out = sys.stderr if log_path is None else sys.stdout
    print(json.dumps(summary, sort_keys=True), file=out)
    return ExitStatus.FINDINGS if deviations or illegal else ExitStatus.OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        "tsmon", description="Parse, validate, simulate and monitor probabilistic typestates.", allow_abbrev=False
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    command("validate", validate_cmd).add_argument("spec_path", metavar="SPEC_PATH")
    cmd = command("graph", graph)
    cmd.add_argument("spec_path", metavar="SPEC_PATH")
    cmd.add_argument("--dot", dest="dot_path", help="Write DOT here instead of stdout.")
    cmd = command("simulate", simulate)
    cmd.add_argument("protocol", choices=["abp", "bitvote"])
    cmd.add_argument("--seed", type=int, help="PRNG seed (default: $TSMON_SEED or 0).")
    cmd.add_argument("--drop", type=float, default=0.0, help="Per-send drop probability in [0, 1).")
    cmd.add_argument("--dup", type=float, default=0.0, help="Per-send duplication probability in [0, 1).")
    cmd.add_argument("--rounds", type=int, default=10, help="Bit emissions (abp) or voting rounds (bitvote).")
    cmd.add_argument("--n", dest="n_peers", type=int, default=2, help="Peer count (bitvote).")
    cmd.add_argument("--k", dest="retry_budget", type=int, default=5, help="Vote requests per round (bitvote).")
    cmd.add_argument("--ack-rate", type=float, default=1.0, help="Receiver ack probability (abp lazy variant).")
    cmd.add_argument("--out", dest="out_dir", default=".", help="Directory for traces and manifest.")
    cmd = command("monitor", monitor_cmd)
    cmd.add_argument("spec_path", metavar="SPEC_PATH")
    cmd.add_argument("--trace", dest="trace_path", required=True, help="JSONL event trace to replay.")
    cmd.add_argument("--error", dest="error_bound", type=float, default=0.1, help="Confidence-interval half width.")
    cmd.add_argument("--warmup", type=int, default=10, help="Suppress verdicts below this execution count.")
    cmd.add_argument("--log", dest="log_path", help="Write the JSONL log here instead of stdout.")
    return parser


_PARSER = _build_parser()


def main(args: Optional[list[str]] = None, standalone_mode: bool = True) -> NoReturn:
    """Run one ``tsmon`` command and exit with its status; usage errors exit 2.
    ``standalone_mode`` is ignored: perfbench/worker.py still passes it.  The
    cyclic collector is off while the command runs; every exit, normal or
    not, turns it back on if it was on when ``main`` was called."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        opts = vars(_PARSER.parse_args(args))
        status = opts.pop("run")(**opts)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away.  Exit 1 quietly, and send what is
        # still buffered to devnull so the flush at exit cannot raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        status = 1
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        status = 1
    finally:
        if collecting:
            gc.enable()
    sys.exit(int(status))


if __name__ == "__main__":
    main()
