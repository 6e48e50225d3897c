"""One benchmark pass in a fresh interpreter: ``python3 worker.py JOB.json``.

The job file names the workload, its generated inputs and where to write.
The worker imports ``tsmon.cli`` and loads the bundled specs (the fixed
cost every ``tsmon`` invocation pays), records when that finished, then
runs the pass's CLI commands in-process through
``tsmon.cli.main(args, standalone_mode=False)`` with stdout and stderr sent
to in-memory sinks.  It writes a JSON result file with each command's exit
code, exception, output and wall time; run.py checks the outputs.

The worker pins itself to one vCPU and times the reference kernel of
``calibrate.py`` right after setup, between commands and after the last
one, so run.py can scale every time to nominal host speed.

With ``"trace": true`` the public functions of each module are wrapped
(see ``tracing.py``) and every span is written to ``spans`` at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import calibrate

CALIBRATE_EVERY_S = 0.2  # wall time between two timings of the reference kernel


def load_tsmon(src: str) -> float:
    """Import the CLI and load the bundled specs; returns when that ended
    on the system-wide monotonic clock, so run.py can subtract the
    time it spawned this process."""
    sys.path.insert(0, src)
    import tsmon.cli
    from tsmon import specs

    for name in specs.BUNDLED:
        specs.load(name)
    return time.monotonic()


def peak_rss_mb() -> float:
    """High-water RSS of this process (``VmHWM``).  The ``ru_maxrss`` that
    ``os.wait4`` reports would also count the spawning process, because
    Linux carries the old address space's high-water mark across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(args: list[str]) -> dict:
    """Run one ``tsmon`` command; exit code as the real CLI would set it,
    or the exception a real run would show as a traceback."""
    import click
    import tsmon.cli

    out, err = io.StringIO(), io.StringIO()
    code, raised = 0, None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            tsmon.cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:  # a traceback in the real CLI, which exits 1
            code, raised = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {
        "args": args,
        "exit": code,
        "raised": raised,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": seconds,
    }


class Pass:
    def __init__(self, out: Path, tracer=None) -> None:
        self.out = out
        self.tracer = tracer
        self.commands: list[dict] = []
        self.roundtrips: list[bool] = []
        self.kernel_s: list[float] = []
        self.calibrated = 0.0

    def calibrate(self, force: bool = False) -> None:
        """Time the reference kernel if CALIBRATE_EVERY_S have passed since
        the last time, so its samples are spread evenly over the pass."""
        if force or time.perf_counter() - self.calibrated >= CALIBRATE_EVERY_S:
            self.kernel_s.append(calibrate.timed_kernel(self.out))
            self.calibrated = time.perf_counter()

    def cli(self, *args: str) -> dict:
        self.calibrate()
        argv = [str(a) for a in args]
        run = run_cli if self.tracer is None else self.tracer.wrap(f"cli.{argv[0]}", run_cli)
        record = run(argv)
        record["kernel"] = len(self.kernel_s) - 1  # the kernel timed just before
        self.commands.append(record)
        return record

    def check_specs(self, paths: list, out: Path) -> None:
        """validate, graph and a parse/serialize round trip of each spec,
        as a user checks a spec before using it."""
        for path in paths:
            self.cli("validate", path)
            self.cli("graph", path, "--dot", out / f"{Path(path).stem}.dot")
            self.roundtrips.append(roundtrip(Path(path).read_text(encoding="utf-8")))


def roundtrip(text: str) -> bool:
    """parse -> serialize -> parse gives an equal spec, and serializing is
    a fixpoint."""
    from tsmon import dsl

    spec = dsl.parse_protocol(text)
    canon = dsl.serialize_protocol(spec)
    again = dsl.parse_protocol(canon)
    return again == spec and dsl.serialize_protocol(again) == canon


def abp_stream(p: Pass, inputs: dict, out: Path) -> tuple[str, str]:
    from tsmon import specs

    p.check_specs([specs.spec_path("sender"), specs.spec_path("receiver")], out)
    sim = out / "abp"
    p.cli(
        "simulate", "abp", "--rounds", inputs["rounds"], "--drop", inputs["drop"],
        "--dup", inputs["dup"], "--ack-rate", inputs["ack_rate"],
        "--seed", inputs["sim_seed"], "--out", sim,
    )
    for name in ("receiver", "sender"):
        p.cli(
            "monitor", specs.spec_path(name), "--trace", sim / f"{name}.jsonl",
            "--log", sim / f"{name}.log", "--error", inputs["error"], "--warmup", inputs["warmup"],
        )
    return str(sim / "receiver.jsonl"), "receiver"


def bitvote_faults(p: Pass, inputs: dict, out: Path) -> tuple[str, str] | None:
    from tsmon import specs

    p.check_specs([specs.spec_path("leader"), specs.spec_path("peer")], out)
    longest, probe = 0, None
    for i, seed in enumerate(inputs["session_seeds"]):
        sim = out / f"s{i:03d}"
        record = p.cli(
            "simulate", "bitvote", "--rounds", inputs["rounds"], "--n", inputs["n"],
            "--drop", inputs["drop"], "--dup", inputs["dup"], "--seed", seed, "--out", sim,
        )
        if record["exit"] != 0:
            continue  # nothing was simulated, so there is nothing to monitor
        participants = ["leader"] + [f"peer{j}" for j in range(inputs["n"])]
        for name in participants:
            spec = "leader" if name == "leader" else "peer"
            p.cli(
                "monitor", specs.spec_path(spec), "--trace", sim / f"{name}.jsonl",
                "--log", sim / f"{name}.log", "--error", inputs["error"], "--warmup", inputs["warmup"],
            )
            if p.tracer is not None:  # the traced pass probes the longest trace
                events = len((sim / f"{name}.jsonl").read_text(encoding="utf-8").splitlines())
                if events > longest:
                    longest, probe = events, (str(sim / f"{name}.jsonl"), spec)
    return probe


def spec_corpus(p: Pass, inputs: dict, out: Path) -> None:
    p.check_specs(inputs["specs"], out)
    return None  # no traces to probe


# Each runs one pass and returns the (trace, spec) the slope probe times.
WORKLOADS = {"abp-stream": abp_stream, "bitvote-faults": bitvote_faults, "spec-corpus": spec_corpus}


def probe_monitor_slope(trace_path: str, spec_name: str, min_seconds: float = 0.05) -> list[dict]:
    """Time ``monitor.run_trace`` over 1/4, 1/2 and all of one trace.

    Each prefix runs until ``min_seconds`` have passed (at least once); the
    fastest run counts."""
    from tsmon import monitor, specs

    events = monitor.read_trace(trace_path)
    spec = specs.load(spec_name)
    conf = monitor.MonitorConfig(error_bound=0.1, warmup=20)
    points = []
    for frac in (0.25, 0.5, 1.0):
        prefix = events[: max(1, int(len(events) * frac))]
        best, spent = float("inf"), 0.0
        while spent < min_seconds or best == float("inf"):
            start = time.perf_counter()
            monitor.run_trace(spec, conf, prefix)
            took = time.perf_counter() - start
            best, spent = min(best, took), spent + took
        points.append({"events": len(prefix), "seconds": best})
    return points


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    # One vCPU for the whole pass, so the reference kernel and the commands
    # it calibrates run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ready = load_tsmon(job["src"])
    import tsmon

    out = Path(job["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    result = {
        "ready": ready,
        "src": str(Path(tsmon.__file__).resolve().parents[1]),
        "setup_kernel_s": calibrate.timed_kernel(out),  # host speed for setup_s
    }
    if job["mode"] == "pass":
        tracer = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        p = Pass(out, tracer)
        p.calibrate(force=True)
        probe = WORKLOADS[job["workload"]](p, job["inputs"], out)
        p.calibrate(force=True)
        result["peak_rss_mb"] = peak_rss_mb()
        result["commands"] = p.commands
        result["roundtrips"] = p.roundtrips
        result["kernel_s"] = p.kernel_s
        if tracer is not None:
            probe_start = len(tracer.spans)
            if job["probe"] and probe:
                result["probe"] = probe_monitor_slope(*probe)
            tracer.write(Path(job["spans"]), probe_start)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
