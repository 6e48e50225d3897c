"""tsmon benchmark: three workloads through the ``tsmon`` CLI.

    python3 perfbench/run.py --workload abp-stream --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Inputs are generated from ``--seed``.  Each pass runs
in a fresh worker process (``worker.py``) that imports ``tsmon.cli`` and
calls it in-process; passes repeat until ``--seconds`` are used.  Times
are scaled to nominal host speed with the reference kernel the worker
times between commands (``calibrate.py``).  run.py checks the outputs of
the first pass without importing ``tsmon`` (``checks.py``) and requires
every later pass to give the same bytes.  It prints one line per metric,
and as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced passes; its
per-layer numbers come only from traced passes and end-to-end numbers only
from untraced ones.

Work files go to ``.perfbench_work/`` in the checkout; a run keeps only its
``report.json`` (and the spans of one traced pass) there.  ``--smoke`` runs
every workload at tiny sizes, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import checks  # noqa: E402
import specgen  # noqa: E402

WORKLOADS = ("abp-stream", "bitvote-faults", "spec-corpus")
SETUP_SAMPLES = 8  # setup-only workers per run, besides one per pass
MIN_PASSES = 3  # untraced passes per untraced run, however long they take
RUN_DEADLINE_S = 170  # a run ends well inside 180 s
SLOPE_FLAG = 1.2  # log-log slope above which a layer counts as superlinear
MIN_SIZE_RANGE = 4.0  # a slope needs sizes spanning at least this factor

# Workload parameters; --smoke shrinks the sizes, never the kind of work.
ABP = {"rounds": 6000, "drop": 0.2, "dup": 0.1, "ack_rate": 0.7, "error": 0.05, "warmup": 20}
BITVOTE = {"sessions": 300, "rounds": 10, "n": 3, "drop": 0.2, "dup": 0.1, "error": 0.1, "warmup": 10}
SMOKE = {"abp-stream": {"rounds": 150}, "bitvote-faults": {"sessions": 8}}


class HarnessError(Exception):
    """The benchmark itself could not run (no program, a worker died)."""


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, smoke: bool, work: Path) -> tuple[dict, dict]:
    """(inputs handed to the worker, facts the checks need)."""
    rng = random.Random(seed)
    if workload == "abp-stream":
        params = {**ABP, **(SMOKE[workload] if smoke else {})}
        return {**params, "sim_seed": rng.randrange(1 << 31)}, {}
    if workload == "bitvote-faults":
        params = {**BITVOTE, **(SMOKE[workload] if smoke else {})}
        seeds = [rng.randrange(1 << 31) for _ in range(params.pop("sessions"))]
        return {**params, "session_seeds": seeds}, {}
    corpus = specgen.generate_corpus(seed, specgen.SMOKE_SLOTS if smoke else specgen.CORPUS_SLOTS)
    spec_dir = work / "corpus"
    spec_dir.mkdir(parents=True)
    paths = []
    for spec in corpus:
        path = spec_dir / f"{spec.name}.tsp"
        path.write_text(spec.text, encoding="utf-8")
        paths.append(str(path))
    return {"specs": paths}, {"corpus": corpus}


# --------------------------------------------------------------------------
# Workers
# --------------------------------------------------------------------------


def spawn(job: dict, job_path: Path, seed: int, deadline: float) -> tuple[dict, float]:
    """Run one worker; returns (its result, its setup seconds at nominal
    host speed)."""
    job_path.write_text(json.dumps(job), encoding="utf-8")
    err_path = job_path.with_suffix(".err")
    # The hash seed orders set iteration, which steers the graph searches in
    # validate; it is an input, so it comes from the workload seed.
    env = {**os.environ, "PYTHONHASHSEED": str(seed % (1 << 32))}
    with open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT,
        )
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise HarnessError("worker ran past the run deadline") from None
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.exists():
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise HarnessError(f"worker exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["src"]) != SRC.resolve():
        raise HarnessError(f"worker imported tsmon from {result['src']}, not {SRC}")
    setup_s = (result["ready"] - spawned) * calibrate.NOMINAL_S / result["setup_kernel_s"]
    return result, setup_s


# --------------------------------------------------------------------------
# Checks, one function per workload
# --------------------------------------------------------------------------


class PassCheck:
    """What one pass did and what was wrong with it."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed_ops: list[str] = []
        self.errors: list[str] = []  # wrong outputs: the run is not correct
        self.exits: Counter = Counter()
        self.tracebacks: list[str] = []
        self.stats: Counter = Counter()

    def command(self, cmd: dict, expected: set[int]) -> bool:
        """Record a command; False when it raised or exited unexpectedly."""
        self.exits[cmd["exit"]] += 1
        if cmd["raised"]:
            self.tracebacks.append(cmd["raised"])
            return False
        if cmd["exit"] not in expected:
            self.errors.append(f"{' '.join(cmd['args'][:2])}: exit {cmd['exit']}, expected {sorted(expected)}")
            return False
        return True

    def op(self, label: str, ok: bool) -> None:
        self.ops += 1
        if not ok:
            self.failed_ops.append(label)

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


def _arg(cmd: dict, flag: str) -> str:
    return cmd["args"][cmd["args"].index(flag) + 1]


def _check_bundled(pc: PassCheck, commands: list[dict], roundtrips: list[bool]) -> bool:
    """validate + graph of bundled specs: exit 0 and the expected graph;
    their parse/serialize round trips give equal specs."""
    ok = pc.require(all(roundtrips), "bundled spec: parse/serialize round trip differs")
    for cmd in commands:
        spec = Path(cmd["args"][1])
        ok &= pc.command(cmd, {0})
        pc.stats["check_bytes"] += spec.stat().st_size
        if cmd["args"][0] == "graph" and cmd["exit"] == 0:
            dot = Path(_arg(cmd, "--dot")).read_text(encoding="utf-8")
            ok &= pc.require(
                checks.dot_counts(dot) == checks.BUNDLED_GRAPHS[spec.stem],
                f"graph {spec.stem}: {checks.dot_counts(dot)} nodes/edges",
            )
    return ok


def _check_monitor(pc: PassCheck, cmd: dict, reference: list[dict] | None = None) -> bool:
    """A monitor of a simulated trace: no illegal events, one summary event
    per trace line, exit 1 iff findings, and (given a reference) the log."""
    if not pc.command(cmd, {0, 1}):
        return False
    trace = checks.read_jsonl(_arg(cmd, "--trace"))
    log = checks.read_jsonl(_arg(cmd, "--log"))
    summary = checks.last_json(cmd["stdout"])
    name = Path(_arg(cmd, "--trace")).stem
    if not pc.require(summary is not None, f"monitor {name}: no summary"):
        return False
    ok = pc.require(summary["illegal"] == 0, f"monitor {name}: {summary['illegal']} illegal events")
    ok &= pc.require(summary["events"] == len(trace), f"monitor {name}: {summary['events']} events, trace has {len(trace)}")
    findings = summary["deviations"] + summary["illegal"]
    ok &= pc.require(cmd["exit"] == int(findings > 0), f"monitor {name}: exit {cmd['exit']} with {findings} findings")
    ok &= pc.require(len(log) == summary["monitored"] + summary["illegal"], f"monitor {name}: log length")
    if reference is not None:
        mismatch = checks.compare_log(log, reference)
        ok &= pc.require(mismatch is None, f"monitor {name}: {mismatch}")
        ref_dev = sum(e["verdict"].startswith("deviation") for e in reference)
        ok &= pc.require(summary["deviations"] == ref_dev, f"monitor {name}: deviations differ from reference")
    pc.stats["monitor_events"] += len(trace)
    return ok


def _check_simulate(pc: PassCheck, cmd: dict) -> bool:
    if not pc.command(cmd, {0}):
        return False
    manifest = checks.last_json(cmd["stdout"])
    ok = pc.require(manifest is not None and manifest["truncated"] is False, "simulate: truncated or no manifest")
    out = Path(_arg(cmd, "--out"))
    for name in (manifest or {}).get("participants", []):
        with open(out / f"{name}.jsonl", encoding="utf-8") as fh:
            pc.stats["simulate_events"] += sum(1 for _ in fh)
    return ok


def check_abp(pc: PassCheck, result: dict, inputs: dict, facts: dict) -> None:
    cmds = result["commands"]
    ok = _check_bundled(pc, cmds[:4], result["roundtrips"])
    ok &= _check_simulate(pc, cmds[4])
    if ok:
        for cmd, table in zip(cmds[5:], (checks.RECEIVER, checks.SENDER)):
            events = checks.read_jsonl(_arg(cmd, "--trace"))
            reference = checks.reference_log(table, events, inputs["error"], inputs["warmup"])
            ok &= _check_monitor(pc, cmd, reference)
    pc.op("abp pipeline", ok)


def check_bitvote(pc: PassCheck, result: dict, inputs: dict, facts: dict) -> None:
    cmds = iter(result["commands"])
    bundled = [next(cmds) for _ in range(4)]
    ok_bundled = _check_bundled(pc, bundled, result["roundtrips"])
    for seed in inputs["session_seeds"]:
        sim = next(cmds)
        ok = ok_bundled and int(_arg(sim, "--seed")) == seed
        if sim["exit"] != 0 or sim["raised"]:
            # The worker monitors nothing after a failed simulation.
            _check_simulate(pc, sim)
            pc.op(f"seed {seed}: {sim['raised'] or 'exit %d' % sim['exit']}", False)
            continue
        ok &= _check_simulate(pc, sim)
        for _ in range(1 + inputs["n"]):
            ok &= _check_monitor(pc, next(cmds))
        pc.op(f"seed {seed}", ok)


def check_corpus(pc: PassCheck, result: dict, inputs: dict, facts: dict) -> None:
    cmds = result["commands"]
    for i, spec in enumerate(facts["corpus"]):
        validate, graph = cmds[2 * i], cmds[2 * i + 1]
        expected = {1} if spec.rule else {0}
        ok = pc.command(validate, expected) & pc.command(graph, expected)
        rules = checks.reported_rules(validate["stderr"])
        dot_path = Path(_arg(graph, "--dot"))
        if spec.rule:
            ok &= pc.require(spec.rule in rules, f"{spec.name}: planted {spec.rule}, reported {sorted(rules)}")
            ok &= pc.require(not dot_path.exists(), f"{spec.name}: graph written for an invalid spec")
        else:
            ok &= pc.require(not rules, f"{spec.name}: well-formed, reported {sorted(rules)}")
            if dot_path.exists():
                counts = checks.dot_counts(dot_path.read_text(encoding="utf-8"))
                ok &= pc.require(
                    counts == (spec.states, spec.transitions),
                    f"{spec.name}: DOT has {counts} nodes/edges, expected {(spec.states, spec.transitions)}",
                )
            else:
                ok &= pc.require(False, f"{spec.name}: no DOT written")
        ok &= pc.require(result["roundtrips"][i], f"{spec.name}: parse/serialize round trip differs")
        pc.stats["check_bytes"] += 2 * len(spec.text.encode())
        pc.op(spec.name, ok)


CHECKS = {"abp-stream": check_abp, "bitvote-faults": check_bitvote, "spec-corpus": check_corpus}


def command_seconds(commands: list[dict]) -> Counter:
    """Host-scaled seconds of a pass's commands, by kind."""
    kinds = {"monitor": "monitor_s", "simulate": "simulate_s", "validate": "check_s", "graph": "check_s"}
    seconds: Counter = Counter()
    for cmd in commands:
        seconds[kinds[cmd["args"][0]]] += cmd["scaled_s"]
    return seconds


def digest(out_dir: Path, result: dict) -> str:
    """sha256 over every output file and every command's exit code."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(json.dumps([c["exit"] for c in result["commands"]]).encode())
    return h.hexdigest()


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------


def loglog_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(seconds) over log(size), or None when the
    sizes span less than MIN_SIZE_RANGE."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len(pts) < 2 or max(p[0] for p in pts) - min(p[0] for p in pts) < math.log(MIN_SIZE_RANGE):
        return None
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans_path: Path, probe: list[dict] | None) -> tuple[dict, dict]:
    """(per-layer metrics of one traced pass, the slopes' sample sizes)."""
    spans = []
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    child = [0.0] * len(spans)
    for name, start, end, parent, attrs, phase in spans:
        if parent >= 0:
            child[parent] += end - start
    agg: dict[str, Counter] = {}
    points: dict[str, list] = {"dsl.parse": [], "wellformed.validate": []}
    for i, (name, start, end, parent, attrs, phase) in enumerate(spans):
        if phase != "pass":
            continue
        key = "cli" if name.startswith("cli.") else name
        a = agg.setdefault(key, Counter())
        self_s = (end - start) - child[i]
        a["calls"] += 1
        a["self_s"] += self_s
        a["total_s"] += end - start
        a.update(attrs)
        if key in points:
            points[key].append((attrs.get("size", 0), self_s))
    g = lambda name: agg.get(name, Counter())  # noqa: E731

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    slopes = {
        "dsl.parse.slope": loglog_slope(points["dsl.parse"]),
        "wellformed.validate.slope": loglog_slope(points["wellformed.validate"]),
        "monitor.run_trace.slope": loglog_slope([(p["events"], p["seconds"]) for p in probe or []]),
    }
    m = {
        "dsl.parse.calls": g("dsl.parse")["calls"],
        "dsl.parse.self_s": g("dsl.parse")["self_s"],
        "dsl.parse.mb_per_s": rate(g("dsl.parse")["size"] / 1e6, g("dsl.parse")["self_s"]),
        "dsl.serialize.self_s": g("dsl.serialize")["self_s"],
        "wellformed.validate.calls": g("wellformed.validate")["calls"],
        "wellformed.validate.self_s": g("wellformed.validate")["self_s"],
        "wellformed.validate.diagnostics": g("wellformed.validate")["diagnostics"],
        "wellformed.export_dot.self_s": g("wellformed.export_dot")["self_s"],
        "semantics.step.calls": g("semantics.step")["calls"],
        "semantics.step.self_s": g("semantics.step")["self_s"],
        "semantics.step.steps_per_s": rate(g("semantics.step")["calls"], g("semantics.step")["self_s"]),
        "semantics.step.triggered_frac": rate(g("semantics.step")["triggered"], g("semantics.step")["calls"]),
        "monitor.read_trace.self_s": g("monitor.read_trace")["self_s"],
        "monitor.read_trace.mb_per_s": rate(g("monitor.read_trace")["size"] / 1e6, g("monitor.read_trace")["self_s"]),
        "monitor.run_trace.calls": g("monitor.run_trace")["calls"],
        "monitor.run_trace.self_s": g("monitor.run_trace")["self_s"],
        "monitor.run_trace.events_per_s": rate(g("monitor.run_trace")["events"], g("monitor.run_trace")["total_s"]),
        "monitor.write_log.self_s": g("monitor.write_log")["self_s"],
        "monitor.write_log.mb_per_s": rate(g("monitor.write_log")["size"] / 1e6, g("monitor.write_log")["self_s"]),
        "monitor.illegal": g("monitor.run_trace")["illegal"],
        "monitor.deviations": g("monitor.run_trace")["deviations"],
        "simnet.run.self_s": g("simnet.run")["self_s"],
        "simnet.run.events_per_s": rate(g("simnet.run")["events"], g("simnet.run")["total_s"]),
        "simnet.run.failed": g("simnet.run")["failed"],
        "simnet.run.calls": g("simnet.run")["calls"],
        "simnet.run.ticks": g("simnet.run")["ticks"],
        "simnet.write_run.self_s": g("simnet.write_run")["self_s"],
        "simnet.write_run.mb_per_s": rate(g("simnet.write_run")["size"] / 1e6, g("simnet.write_run")["self_s"]),
        "cli.commands": g("cli")["calls"],
        "cli.self_s": g("cli")["self_s"],
    }
    for name, value in slopes.items():
        m[name] = 0.0 if value is None else value
    return m, {name: value is not None for name, value in slopes.items()}


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not (SRC / "tsmon" / "cli.py").is_file():
        raise HarnessError(f"no tsmon sources under {SRC}")
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, facts = make_inputs(workload, seed, smoke, work)

    def job(i: int, mode: str, traced: bool = False, probe: bool = False) -> dict:
        return {
            "mode": mode, "src": str(SRC), "workload": workload, "inputs": inputs,
            "out_dir": str(work / f"pass{i}"), "trace": traced, "probe": probe,
            "result": str(work / f"result{i}.json"), "spans": str(work / f"spans{i}.jsonl"),
        }

    setups: list[float] = []
    passes: list[dict] = []
    traced_seen = False
    measure_start = time.monotonic()
    while True:
        i = len(passes)
        traced = trace and i % 2 == 1
        probe = traced and not traced_seen
        traced_seen |= traced
        t0 = time.monotonic()
        result, setup_s = spawn(job(i, "pass", traced, probe), work / f"job{i}.json", seed, deadline)
        setups.append(setup_s)
        for cmd, scaled in zip(result["commands"], calibrate.scaled_seconds(result["commands"], result["kernel_s"])):
            cmd["scaled_s"] = scaled
        pass_digest = digest(work / f"pass{i}", result)
        if passes and pass_digest == passes[0]["digest"]:
            pc = passes[0]["check"]  # the same bytes as the checked first pass
        else:
            pc = PassCheck()
            CHECKS[workload](pc, result, inputs, facts)
        entry = {
            "traced": traced, "rss_mb": result["peak_rss_mb"],
            "pipeline_s": sum(c["scaled_s"] for c in result["commands"]),
            "wall_s": sum(c["seconds"] for c in result["commands"]),
            "kernel_median_s": statistics.median(result["kernel_s"]),
            "command_s": [c["scaled_s"] for c in result["commands"]],
            "seconds_by_kind": command_seconds(result["commands"]),
            "digest": pass_digest, "check": pc,
        }
        if traced:
            entry["layers"], entry["slope_ok"] = layer_metrics(work / f"spans{i}.jsonl", result.get("probe"))
            if probe:
                entry["probe"] = result.get("probe")
                os.replace(work / f"spans{i}.jsonl", work / "spans.jsonl")
            else:
                os.remove(work / f"spans{i}.jsonl")
        passes.append(entry)
        now = time.monotonic()
        last = now - t0
        plain = sum(not p["traced"] for p in passes)
        enough = (plain >= 1 and traced_seen) if trace else plain >= MIN_PASSES
        if enough and (now - measure_start + last > seconds or now + 2 * last > deadline):
            break
    # Setup-only workers run after the passes, whose outputs are only
    # deleted at the end of the run: deleting files is slow and erratic on
    # a file system that discards freed blocks.
    for i in range(SETUP_SAMPLES):
        _, setup_s = spawn(job(-1 - i, "setup"), work / f"setup{i}.json", seed, deadline)
        setups.append(setup_s)
    report = summarize(workload, seed, inputs, facts, setups, passes, work, time.monotonic() - started)
    for path in work.iterdir():
        if path.name not in ("report.json", "spans.jsonl"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    return report


def summarize(workload, seed, inputs, facts, setups, passes, work: Path, wall_s: float) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # Every pass runs the same operations on the same inputs, so the counts
    # are those of one pass; a run of a seed always reports the same ones.
    checks_ = [p["check"] for p in passes]
    first = checks_[0]
    attempted, failed = first.ops, len(first.failed_ops)
    errors = [e for c in {id(c): c for c in checks_}.values() for e in c.errors]
    if any((c.ops, c.failed_ops, c.exits) != (first.ops, first.failed_ops, first.exits) for c in checks_):
        errors.append("passes over the same inputs attempted or failed different operations")
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        errors.append(f"passes over the same inputs gave {len(digests)} different outputs")
    pipeline = [p["pipeline_s"] for p in plain]

    def rate(amount: str, kind: str) -> float:
        seconds = median([p["seconds_by_kind"][kind] for p in plain])
        return first.stats[amount] / seconds if seconds else 0.0

    end_to_end = {
        "pipeline_s": median(pipeline),
        "peak_rss_mb": median([p["rss_mb"] for p in plain]),
        "setup_s": median(setups),
    }
    info = {
        "pipeline_wall_s": (median([p["wall_s"] for p in plain]), "s"),
        "kernel_s": (median([p["kernel_median_s"] for p in plain]), f"s (nominal {calibrate.NOMINAL_S})"),
        "monitor_events_per_s": (rate("monitor_events", "monitor_s"), "1/s"),
        "simulate_events_per_s": (rate("simulate_events", "simulate_s"), "1/s"),
        "check_kb_per_s": (rate("check_bytes", "check_s") / 1e3, "KB/s"),
        "failed_frac": (failed / attempted if attempted else 0.0, f"of {attempted} ops"),
    }
    layers: dict[str, float] = {}
    slope_ok = traced[0]["slope_ok"] if traced else {}
    if traced:
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            if name == "monitor.run_trace.slope":
                values = [traced[0]["layers"][name]]  # only the first traced pass probes
            layers[name] = median(values)
        layers["trace.overhead_frac"] = median([p["pipeline_s"] for p in traced]) / median(pipeline) - 1
    report = {
        "workload": workload,
        "seed": seed,
        "inputs": {k: v for k, v in inputs.items() if k not in ("specs", "session_seeds")},
        "passes": [{k: v for k, v in p.items() if k not in ("check", "layers", "slope_ok")} for p in passes],
        "setup_samples": setups,
        "end_to_end": end_to_end,
        "info": info,
        "per_layer": layers,
        "slope_measured": slope_ok,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": first.failed_ops,
        "exit_codes": {str(k): v for k, v in sorted(first.exits.items())},
        "tracebacks": len(first.tracebacks),
        "errors": errors[:50],
        "digests": digests,
        "wall_s": wall_s,
    }
    if workload == "spec-corpus":
        report["corpus"] = [
            {"name": s.name, "states": s.states, "transitions": s.transitions, "shape": s.shape,
             "defect": s.defect, "bytes": len(s.text)}
            for s in facts["corpus"]
        ]
    (work / "report.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    return report


def print_report(report: dict, trace: bool) -> dict:
    """Human-readable lines; returns the metrics for the JSON line."""
    plain = [p for p in report["passes"] if not p["traced"]]
    print(f"# {report['workload']} seed={report['seed']} inputs={json.dumps(report['inputs'])}")
    print(f"# {len(plain)} untraced + {len(report['passes']) - len(plain)} traced passes, "
          f"{len(report['setup_samples'])} setup samples, wall {report['wall_s']:.1f} s")
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for name, value in report["end_to_end"].items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for name, (value, unit) in report["info"].items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'failed':32s} {report['failed']:14d} of {report['attempted']} attempted ops per pass; "
          f"{report['tracebacks']} tracebacks and exit codes {report['exit_codes']} per pass")
    for label in report["failed_ops"][:40]:
        print(f"#   failed: {label}")
    if trace:
        for name, value in report["per_layer"].items():
            unit = units[name]
            note = ""
            if name.endswith(".slope"):
                if not report["slope_measured"].get(name):
                    note = "  (n/a: no size range in this workload)"
                elif value > SLOPE_FLAG:
                    note = f"  SUPERLINEAR (> {SLOPE_FLAG})"
            print(f"{name:32s} {value:14.6g} {unit}{note}")
    for error in report["errors"][:20]:
        print(f"# CHECK FAILED: {error}")
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: {"value": report[section][m["name"]], "unit": m["unit"]} for m in BENCH[section]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics = print_report(report, bool(args.trace))
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
