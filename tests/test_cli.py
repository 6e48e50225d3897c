"""CLI surface: exit codes, output streams, flag handling."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tsmon
from tsmon.cli import main
from tsmon.monitor import write_trace
from tsmon.simnet import AbpConfig, NetConfig, run_abp
from tsmon.specs import spec_path

from specgen import mutated_bundled_spec


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestValidate:
    def test_bundled_specs_pass(self, runner):
        for name in ("sender", "receiver", "leader", "peer", "auth"):
            result = invoke(runner, ["validate", str(spec_path(name))])
            assert result.exit_code == 0, result.stderr

    def test_ratio_sum_failure(self, runner, tmp_path):
        bad = tmp_path / "bad.tsp"
        bad.write_text(
            "state R0 = ?{ unit msg() : R1 }\n"
            "state R1 = !{ unit ack() [0.5; []; []] : R1 [] }"
            " + ?{ unit msg() [0.4; []; []] : R1 [] }\n"
        )
        result = invoke(runner, ["validate", str(bad)])
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"VALID-RATIO-SUM {bad}:2:")

    def test_missing_file(self, runner):
        result = invoke(runner, ["validate", "no/such/file.tsp"])
        assert result.exit_code == 2

    def test_non_utf8_spec(self, runner, tmp_path):
        bad = tmp_path / "latin1.tsp"
        bad.write_bytes("state Caf\u00e9 = end\n".encode("latin-1"))
        result = invoke(runner, ["validate", str(bad)])
        assert result.exit_code == 2
        assert "cannot read" in result.stderr

    def test_parse_error(self, runner, tmp_path):
        bad = tmp_path / "broken.tsp"
        bad.write_text("state = {\n")
        result = invoke(runner, ["validate", str(bad)])
        assert result.exit_code == 3
        assert "parse error" in result.stderr

    @pytest.mark.parametrize(
        "source",
        [
            "const c = 1\nvar x = " + "(" * 2000 + "c" + ")" * 2000 + "\nstate S = end\n",
            "var x = 0\nassign A: x := x" + " + 1" * 3000
            + "\nstate S = !{ unit a() [_; [A]; []] : S }\n",
        ],
        ids=["parentheses", "operator-chain"],
    )
    def test_deep_expression_is_a_range_error(self, runner, tmp_path, source):
        deep = tmp_path / "deep.tsp"
        deep.write_text(source)
        result = invoke(runner, ["validate", str(deep)])
        assert result.exit_code == 3
        assert "parse error (range)" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("decl", ["const n = ", "var n = "])
    def test_huge_integer_literal_is_a_range_error(self, runner, tmp_path, decl):
        spec = tmp_path / "huge.tsp"
        spec.write_text(decl + "1" + "0" * 5000 + "\nstate S = end\n")
        result = invoke(runner, ["validate", str(spec)])
        assert result.exit_code == 3
        assert f"huge.tsp:1:{len(decl) + 1}: integer literal too long" in result.stderr
        assert "parse error (range)" in result.stderr

    @pytest.mark.parametrize("limit", [None, "0", "640"])
    def test_literal_digit_bound_ignores_int_conversion_limit(self, tmp_path, limit):
        # 640 digits is the bound under any PYTHONINTMAXSTRDIGITS, which sets
        # how many digits int() converts from text.
        env = dict(os.environ)
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        src = str(Path(tsmon.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        long = tmp_path / "long.tsp"
        long.write_text("const n = 1" + "0" * 640 + "\nstate S = end\n")
        wide = tmp_path / "wide.tsp"
        wide.write_text("var n = 1" + "0" * 639 + "\nstate S = end\n")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "tsmon.cli", "validate", str(path)],
                capture_output=True, text=True, env=env,
            )
            for path in (long, wide)
        ]
        assert runs[0].returncode == 3
        assert "long.tsp:1:11: integer literal too long" in runs[0].stderr
        assert runs[1].returncode == 2
        [line] = runs[1].stderr.splitlines()
        assert "wide.tsp: initial values: arithmetic overflow" in line
        assert all("Traceback" not in run.stdout + run.stderr for run in runs)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=mutated_bundled_spec())
    def test_mutated_specs_exit_without_traceback(self, runner, tmp_path, text):
        spec = tmp_path / "mutated.tsp"
        spec.write_text(text)
        result = invoke(runner, ["validate", str(spec)])
        assert result.exit_code in (0, 1, 3)
        assert "Traceback" not in result.stdout + result.stderr


class TestGraph:
    def test_writes_dot_file(self, runner, tmp_path):
        out = tmp_path / "sender.dot"
        result = invoke(runner, ["graph", str(spec_path("sender")), "--dot", str(out)])
        assert result.exit_code == 0
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert dot.count("->") == 3

    def test_stdout_when_no_file(self, runner):
        result = invoke(runner, ["graph", str(spec_path("auth"))])
        assert result.exit_code == 0
        assert "?login/success" in result.stdout
        assert "?login/failure" in result.stdout

    def test_invalid_spec_writes_nothing(self, runner, tmp_path):
        bad = tmp_path / "bad.tsp"
        bad.write_text("state A = !{ unit m() : A }\nstate B = !{ unit m() : B }\n")
        out = tmp_path / "bad.dot"
        result = invoke(runner, ["graph", str(bad), "--dot", str(out)])
        assert result.exit_code == 1
        assert not out.exists()


class TestSimulate:
    def test_bitvote_writes_all_traces(self, runner, tmp_path):
        result = invoke(
            runner,
            ["simulate", "bitvote", "--n", "2", "--k", "5", "--seed", "7",
             "--rounds", "1", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"manifest.json", "leader.jsonl", "peer0.jsonl", "peer1.jsonl"}
        manifest = json.loads(result.stdout)
        assert manifest["seed"] == 7

    def test_abp_lossless_trace_counts(self, runner, tmp_path):
        result = invoke(
            runner,
            ["simulate", "abp", "--rounds", "3", "--drop", "0", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        lines = (tmp_path / "sender.jsonl").read_text().splitlines()
        actions = [json.loads(l)["action"] for l in lines]
        assert actions.count("msg") == 3
        assert actions.count("ack") == 3

    def test_drop_out_of_range(self, runner, tmp_path):
        result = invoke(
            runner, ["simulate", "abp", "--drop", "1.5", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_env_seed_used_when_flag_absent(self, runner, tmp_path):
        result = invoke(
            runner,
            ["simulate", "abp", "--rounds", "1", "--out", str(tmp_path)],
            env={"TSMON_SEED": "99"},
        )
        assert json.loads(result.stdout)["seed"] == 99

    def test_flag_beats_env_seed(self, runner, tmp_path):
        result = invoke(
            runner,
            ["simulate", "abp", "--rounds", "1", "--seed", "3", "--out", str(tmp_path)],
            env={"TSMON_SEED": "99"},
        )
        assert json.loads(result.stdout)["seed"] == 3

    def test_repeated_runs_byte_identical(self, runner, tmp_path):
        for sub in ("a", "b"):
            invoke(
                runner,
                ["simulate", "abp", "--rounds", "20", "--drop", "0.3",
                 "--seed", "5", "--out", str(tmp_path / sub)],
            )
        for name in ("sender.jsonl", "receiver.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _receiver_trace() -> bytes:
    run = run_abp(AbpConfig(net=NetConfig(seed=3, drop_prob=0.2, dup_prob=0.1), rounds=6))
    out = io.StringIO()
    write_trace(out, run.traces["receiver"])
    return out.getvalue().encode()


_RECEIVER_TRACE = _receiver_trace()
# Bytes that matter to JSON Lines, and any byte at all.
_BYTES = st.sampled_from(b'{}[]",:-0129 \n\r\\etnu') | st.integers(0, 255)


@st.composite
def _mutated_trace(draw) -> bytes:
    """The receiver trace with one to four byte edits."""
    data = bytearray(_RECEIVER_TRACE)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
        if edit == "insert":
            data.insert(i, draw(_BYTES))
        elif edit == "truncate":
            del data[i:]
        elif i < len(data):
            if edit == "delete":
                del data[i]
            else:
                data[i] = draw(_BYTES)
    return bytes(data)


class TestMonitor:
    def _simulate(self, runner, tmp_path, *extra):
        args = ["simulate", "abp", "--rounds", "50", "--drop", "0.2", "--seed", "42",
                "--out", str(tmp_path), *extra]
        result = invoke(runner, args)
        assert result.exit_code == 0

    def test_faithful_receiver_passes(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        log = tmp_path / "receiver.log"
        result = invoke(
            runner,
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl"), "--error", "0.1",
             "--warmup", "10", "--log", str(log)],
        )
        assert result.exit_code == 0, result.stderr
        summary = json.loads(result.stdout)
        assert summary["illegal"] == 0
        assert summary["deviations"] == 0
        assert summary["monitored"] == len(log.read_text().splitlines())

    def test_lazy_receiver_fails(self, runner, tmp_path):
        self._simulate(runner, tmp_path, "--ack-rate", "0.6")
        result = invoke(
            runner,
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl"), "--log", str(tmp_path / "r.log")],
        )
        assert result.exit_code == 1
        assert json.loads(result.stdout)["deviations"] > 0
        entries = [json.loads(l) for l in (tmp_path / "r.log").read_text().splitlines()]
        assert any(
            e["action"] == "ack" and e["verdict"] == "deviation_low" for e in entries
        )

    def test_nan_error_bound_is_a_usage_error(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        result = invoke(
            runner,
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl"), "--error", "nan", "--warmup", "0"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error bound" in result.stderr

    def test_empty_trace(self, runner, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        result = invoke(
            runner,
            ["monitor", str(spec_path("sender")), "--trace", str(trace),
             "--log", str(tmp_path / "out.log")],
        )
        assert result.exit_code == 0
        assert (tmp_path / "out.log").read_text() == ""
        assert json.loads(result.stdout)["events"] == 0

    def test_overflow_is_logged_illegal(self, runner, tmp_path):
        spec = tmp_path / "overflow.tsp"
        spec.write_text(
            "const big = 9223372036854775807\n"
            "var x = 0\n"
            "assign A: x := x + big\n"
            "state S0 = !{ unit tick() [0.5; [A]; []] : S0, unit stop() [0.5; []; []] : E }\n"
            "state E = end\n"
        )
        trace = tmp_path / "ticks.jsonl"
        trace.write_text(
            "".join(
                json.dumps({"participant": "p", "action": "tick", "dir": "out", "seq": i}) + "\n"
                for i in range(3)
            )
        )
        result = invoke(runner, ["monitor", str(spec), "--trace", str(trace)])
        assert result.exit_code == 1
        assert "Traceback" not in result.stderr
        summary = json.loads(result.stderr.strip().splitlines()[-1])
        assert summary["illegal"] == 2
        verdicts = [json.loads(line)["verdict"] for line in result.stdout.splitlines()]
        assert verdicts == ["warmup", "illegal", "illegal"]

    @pytest.mark.parametrize(
        "decls",
        [
            "var x = 99999999999999999999\n",
            "const a = 9223372036854775807\nvar x = a + 1\n",
        ],
        ids=["literal", "const-plus-one"],
    )
    def test_initial_value_overflow_is_a_usage_error(self, runner, tmp_path, decls):
        spec = tmp_path / "init.tsp"
        spec.write_text(decls + "state S0 = !{ unit tick() : S0 }\n")
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        for args in (["validate", str(spec)], ["graph", str(spec)],
                     ["monitor", str(spec), "--trace", str(trace)]):
            result = invoke(runner, args)
            assert result.exit_code == 2, args
            assert result.stdout == ""
            lines = result.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: {spec}: initial values: arithmetic overflow")

    def test_log_to_stdout_summary_to_stderr(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        result = invoke(
            runner,
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl")],
        )
        assert result.exit_code == 0
        for line in result.stdout.strip().splitlines():
            assert "verdict" in json.loads(line)
        assert "events" in json.loads(result.stderr.strip().splitlines()[-1])

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            "3",
            "null",
            '{"participant": "s", "action": "msg", "dir": "out", "seq": "x"}',
            '{"participant": "s", "action": "msg", "dir": "out", "seq": true}',
            '{"participant": "s", "action": "msg", "dir": "out", "seq": [3]}',
            '{"participant": "s", "action": "msg", "dir": "sideways", "seq": 0}',
            '{"participant": 7, "action": "msg", "dir": "out", "seq": 0}',
            '{"participant": "s", "action": null, "dir": "out", "seq": 0}',
            '{"participant": "s", "action": "msg", "dir": "out", "value": 1, "seq": 0}',
            '{"participant": "s", "action": "msg", "dir": "out", "value": [1], "seq": 0}',
            '{"participant": "s", "action": "msg", "dir": "out", "value": '
            + "[" * 100_000 + "]" * 100_000 + ', "seq": 0}',
            '{"participant": "r", "action": "msg", "dir": "out", "seq": 0}\n'
            '{"participant": "zzz", "action": "ack", "dir": "in", "seq": 1}',
        ],
        ids=[
            "not-json",
            "array",
            "number",
            "null",
            "seq-string",
            "seq-bool",
            "seq-list",
            "dir-unknown",
            "participant-number",
            "action-null",
            "value-int",
            "value-list",
            "value-deep",
            "participants-mixed",
        ],
    )
    def test_malformed_trace(self, runner, tmp_path, line):
        trace = tmp_path / "junk.jsonl"
        trace.write_text(line + "\n")
        result = invoke(
            runner,
            ["monitor", str(spec_path("sender")), "--trace", str(trace)],
        )
        assert result.exit_code == 2
        assert "malformed trace" in result.stderr

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=_mutated_trace())
    def test_mutated_trace_exits_without_traceback(self, runner, tmp_path, data):
        trace = tmp_path / "mutated.jsonl"
        trace.write_bytes(data)
        result = invoke(
            runner,
            ["monitor", str(spec_path("receiver")), "--trace", str(trace),
             "--log", str(tmp_path / "mutated.log")],
        )
        assert result.exit_code in (0, 1, 2, 3)
        assert "Traceback" not in result.stdout + result.stderr

    def test_monitor_runs_are_byte_identical(self, runner, tmp_path):
        self._simulate(runner, tmp_path)
        logs = []
        for name in ("one.log", "two.log"):
            invoke(
                runner,
                ["monitor", str(spec_path("receiver")), "--trace",
                 str(tmp_path / "receiver.jsonl"), "--log", str(tmp_path / name)],
            )
            logs.append((tmp_path / name).read_bytes())
        assert logs[0] == logs[1]
