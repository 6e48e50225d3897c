"""The names and result fields that ``perfbench/tracing.py`` relies on.

The traced benchmark pass wraps tsmon functions by module attribute and
reads attributes of their results; these tests read its ``WRAPPED`` table
and its ``_attrs`` function as they are, so an API change that would break
that pass fails here too.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from tsmon import specs
from tsmon.monitor import MonitorConfig, TraceEvent, run_trace
from tsmon.simnet import AbpConfig, BitVoteConfig, NetConfig, run_abp, run_bitvote

from conftest import subprocess_env

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    import tsmon.cli  # noqa: F401 - the pass installs its wrappers after this import

    wrapped = _tracing().WRAPPED
    assert wrapped
    for module, attr in wrapped:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_run_trace_result_has_a_log_of_verdicts():
    receiver = specs.load("receiver")
    events = [TraceEvent("r", "msg", "in", None, 0), TraceEvent("r", "ack", "out", None, 1),
              TraceEvent("r", "nak", "in", None, 2), TraceEvent("r", "ack", "out", None, 3)]
    args = (receiver, MonitorConfig(error_bound=0.1, warmup=0), events)
    result = run_trace(*args)
    assert [e.verdict for e in result.log] == ["deviation_high", "illegal", "deviation_high"]
    attrs = _tracing()._attrs("monitor.run_trace", args, result)
    assert attrs == {"events": 4, "illegal": 1, "deviations": 2}


def test_simulator_run_counts_every_event():
    # The pass counts a run's events with len() of each trace; the counts
    # are those the golden runs wrote when a trace was a tuple of events.
    abp = run_abp(AbpConfig(net=NetConfig(seed=7, drop_prob=0.2, dup_prob=0.1), rounds=300, ack_prob=0.7))
    bitvote = run_bitvote(BitVoteConfig(net=NetConfig(seed=2, drop_prob=0.2, dup_prob=0.1), n=3, voting_rounds=10))
    tracing = _tracing()
    for run, counts in ((abp, [908, 925]), (bitvote, [42, 32, 28, 29])):
        assert [sum(1 for _ in trace) for trace in run.traces.values()] == counts
        assert tracing._attrs("simnet.run", (run.config,), run) == {"events": sum(counts), "ticks": run.ticks}


def test_main_exits_with_the_status_of_the_command():
    # perfbench/worker.py calls main this way and reads the exit code from
    # the SystemExit it raises.
    import tsmon.cli

    with pytest.raises(SystemExit) as exc:
        tsmon.cli.main(["validate", str(specs.spec_path("receiver"))], standalone_mode=False)
    assert exc.value.code == 0


def test_importing_the_cli_leaves_click_out():
    code = "import sys, tsmon.cli; print('click' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), check=True
    )
    assert run.stdout == "False\n"


def test_monitor_command_streams_through_one_write_log_call(tmp_path, monkeypatch):
    # The traced pass times `monitor` through the module attribute
    # tsmon.monitor.write_log, whose span covers the whole streamed command;
    # read_trace and run_trace are left to the library and the slope probe.
    import tsmon.cli
    import tsmon.monitor

    calls = []
    write_log = tsmon.monitor.write_log

    def counting(target, log):
        calls.append(target)
        return write_log(target, log)

    def unused(*args):
        raise AssertionError("the monitor command reads and monitors in one pass")

    monkeypatch.setattr(tsmon.monitor, "write_log", counting)
    monkeypatch.setattr(tsmon.monitor, "read_trace", unused)
    monkeypatch.setattr(tsmon.monitor, "run_trace", unused)
    trace = tmp_path / "receiver.jsonl"
    trace.write_text(
        '{"participant": "r", "action": "msg", "dir": "in", "value": null, "seq": 0}\n'
        '{"participant": "r", "action": "ack", "dir": "out", "value": null, "seq": 1}\n'
    )
    log = tmp_path / "receiver.log"
    args = ["monitor", str(specs.spec_path("receiver")), "--trace", str(trace), "--log", str(log)]
    with pytest.raises(SystemExit) as exc:
        tsmon.cli.main(args, standalone_mode=False)
    assert exc.value.code == 0
    assert calls == [str(log)]
    assert len(log.read_text().splitlines()) == 1
