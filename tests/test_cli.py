"""CLI surface: exit codes, output streams, flag handling."""

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsmon.cli import _PARSER, main
from tsmon.dsl import serialize_protocol
from tsmon.monitor import TraceEvent, write_trace
from tsmon.semantics import IllegalActionError
from tsmon.simnet import AbpConfig, NetConfig, run_abp
from tsmon.specs import spec_path

from conftest import run_cli, subprocess_env
from specgen import chain_spec, mutated_bundled_spec


RATIO_SUM_SPEC = (
    "state R0 = ?{ unit msg() : R1 }\n"
    "state R1 = !{ unit ack() [0.5; []; []] : R1 [] } + ?{ unit msg() [0.4; []; []] : R1 [] }\n"
)


def _ring_spec(tmp_path, n):
    spec = tmp_path / "ring.tsp"
    spec.write_text("".join(f"state S{i} = !{{ unit a() : S{(i + 1) % n} }}\n" for i in range(n)))
    return spec


class TestValidate:
    def test_bundled_specs_pass(self):
        for name in ("sender", "receiver", "leader", "peer", "auth"):
            result = run_cli(["validate", str(spec_path(name))])
            assert result.exit_code == 0, result.stderr

    def test_ratio_sum_failure(self, tmp_path):
        bad = tmp_path / "bad.tsp"
        bad.write_text(RATIO_SUM_SPEC)
        result = run_cli(["validate", str(bad)])
        assert result.exit_code == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"VALID-RATIO-SUM {bad}:2:")

    def test_missing_file(self):
        result = run_cli(["validate", "no/such/file.tsp"])
        assert result.exit_code == 2

    def test_non_utf8_spec(self, tmp_path):
        bad = tmp_path / "latin1.tsp"
        bad.write_bytes("state Caf\u00e9 = end\n".encode("latin-1"))
        result = run_cli(["validate", str(bad)])
        assert result.exit_code == 2
        assert "cannot read" in result.stderr

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "broken.tsp"
        bad.write_text("state = {\n")
        result = run_cli(["validate", str(bad)])
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
    def test_deep_expression_is_a_range_error(self, tmp_path, source):
        deep = tmp_path / "deep.tsp"
        deep.write_text(source)
        result = run_cli(["validate", str(deep)])
        assert result.exit_code == 3
        assert "parse error (range)" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("decl", ["const n = ", "var n = "])
    def test_huge_integer_literal_is_a_range_error(self, tmp_path, decl):
        spec = tmp_path / "huge.tsp"
        spec.write_text(decl + "1" + "0" * 5000 + "\nstate S = end\n")
        result = run_cli(["validate", str(spec)])
        assert result.exit_code == 3
        assert f"huge.tsp:1:{len(decl) + 1}: integer literal too long" in result.stderr
        assert "parse error (range)" in result.stderr

    @pytest.mark.parametrize("limit", [None, "0", "640"])
    def test_literal_digit_bound_ignores_int_conversion_limit(self, tmp_path, limit):
        # 640 digits is the bound under any PYTHONINTMAXSTRDIGITS, which sets
        # how many digits int() converts from text.
        env = subprocess_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
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
    def test_mutated_specs_exit_without_traceback(self, tmp_path, text):
        spec = tmp_path / "mutated.tsp"
        spec.write_text(text)
        result = run_cli(["validate", str(spec)])
        assert result.exit_code in (0, 1, 3)
        assert "Traceback" not in result.stdout + result.stderr


class TestGraph:
    def test_writes_dot_file(self, tmp_path):
        out = tmp_path / "sender.dot"
        result = run_cli(["graph", str(spec_path("sender")), "--dot", str(out)])
        assert result.exit_code == 0
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert dot.count("->") == 3

    def test_stdout_when_no_file(self):
        result = run_cli(["graph", str(spec_path("auth"))])
        assert result.exit_code == 0
        assert "?login/success" in result.stdout
        assert "?login/failure" in result.stdout

    def test_invalid_spec_writes_nothing(self, tmp_path):
        bad = tmp_path / "bad.tsp"
        bad.write_text("state A = !{ unit m() : A }\nstate B = !{ unit m() : B }\n")
        out = tmp_path / "bad.dot"
        result = run_cli(["graph", str(bad), "--dot", str(out)])
        assert result.exit_code == 1
        assert not out.exists()


class TestSimulate:
    def test_bitvote_writes_all_traces(self, tmp_path):
        result = run_cli(
            ["simulate", "bitvote", "--n", "2", "--k", "5", "--seed", "7",
             "--rounds", "1", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"manifest.json", "leader.jsonl", "peer0.jsonl", "peer1.jsonl"}
        manifest = json.loads(result.stdout)
        assert manifest["seed"] == 7

    def test_abp_lossless_trace_counts(self, tmp_path):
        result = run_cli(
            ["simulate", "abp", "--rounds", "3", "--drop", "0", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        lines = (tmp_path / "sender.jsonl").read_text().splitlines()
        actions = [json.loads(l)["action"] for l in lines]
        assert actions.count("msg") == 3
        assert actions.count("ack") == 3

    def test_drop_out_of_range(self, tmp_path):
        result = run_cli(
            ["simulate", "abp", "--drop", "1.5", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_env_seed_used_when_flag_absent(self, tmp_path):
        result = run_cli(
            ["simulate", "abp", "--rounds", "1", "--out", str(tmp_path)],
            env={"TSMON_SEED": "99"},
        )
        assert json.loads(result.stdout)["seed"] == 99

    def test_flag_beats_env_seed(self, tmp_path):
        result = run_cli(
            ["simulate", "abp", "--rounds", "1", "--seed", "3", "--out", str(tmp_path)],
            env={"TSMON_SEED": "99"},
        )
        assert json.loads(result.stdout)["seed"] == 3

    def test_repeated_runs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(
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
_EVENT = {"participant": "s", "action": "msg", "dir": "out", "seq": 0}
# A trace line without each required field, mapped to the field's name.
_MISSING_FIELD = {json.dumps({k: v for k, v in _EVENT.items() if k != field}): field for field in _EVENT}
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
    def _simulate(self, tmp_path, *extra):
        args = ["simulate", "abp", "--rounds", "50", "--drop", "0.2", "--seed", "42",
                "--out", str(tmp_path), *extra]
        result = run_cli(args)
        assert result.exit_code == 0

    def test_faithful_receiver_passes(self, tmp_path):
        self._simulate(tmp_path)
        log = tmp_path / "receiver.log"
        result = run_cli(
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl"), "--error", "0.1",
             "--warmup", "10", "--log", str(log)],
        )
        assert result.exit_code == 0, result.stderr
        summary = json.loads(result.stdout)
        assert summary["illegal"] == 0
        assert summary["deviations"] == 0
        assert summary["monitored"] == len(log.read_text().splitlines())

    def test_lazy_receiver_fails(self, tmp_path):
        self._simulate(tmp_path, "--ack-rate", "0.6")
        result = run_cli(
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl"), "--log", str(tmp_path / "r.log")],
        )
        assert result.exit_code == 1
        assert json.loads(result.stdout)["deviations"] > 0
        entries = [json.loads(l) for l in (tmp_path / "r.log").read_text().splitlines()]
        assert any(
            e["action"] == "ack" and e["verdict"] == "deviation_low" for e in entries
        )

    def test_nan_error_bound_is_a_usage_error(self, tmp_path):
        self._simulate(tmp_path)
        result = run_cli(
            ["monitor", str(spec_path("receiver")), "--trace",
             str(tmp_path / "receiver.jsonl"), "--error", "nan", "--warmup", "0"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error bound" in result.stderr

    def test_empty_trace(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        result = run_cli(
            ["monitor", str(spec_path("sender")), "--trace", str(trace),
             "--log", str(tmp_path / "out.log")],
        )
        assert result.exit_code == 0
        assert (tmp_path / "out.log").read_text() == ""
        assert json.loads(result.stdout)["events"] == 0

    def test_overflow_is_logged_illegal(self, tmp_path):
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
        result = run_cli(["monitor", str(spec), "--trace", str(trace)])
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
            "const n = 99999999999999999999\nvar x = 0\npred P: x < n\n",
        ],
        ids=["literal", "const-plus-one", "const"],
    )
    def test_initial_value_overflow_is_a_usage_error(self, tmp_path, decls):
        spec = tmp_path / "init.tsp"
        spec.write_text(decls + "state S0 = !{ unit tick() : S0 }\n")
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        for args in (["validate", str(spec)], ["graph", str(spec)],
                     ["monitor", str(spec), "--trace", str(trace)]):
            result = run_cli(args)
            assert result.exit_code == 2, args
            assert result.stdout == ""
            lines = result.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: {spec}: initial values: arithmetic overflow")

    def test_log_to_stdout_summary_to_stderr(self, tmp_path):
        self._simulate(tmp_path)
        result = run_cli(
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
            *_MISSING_FIELD,
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
            *(f"no-{field}" for field in _MISSING_FIELD.values()),
        ],
    )
    def test_malformed_trace(self, tmp_path, line):
        trace = tmp_path / "junk.jsonl"
        trace.write_text(line + "\n")
        result = run_cli(
            ["monitor", str(spec_path("sender")), "--trace", str(trace)],
        )
        assert result.exit_code == 2
        assert "malformed trace" in result.stderr
        if line in _MISSING_FIELD:
            assert f"has no {_MISSING_FIELD[line]!r} field" in result.stderr

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=_mutated_trace())
    def test_mutated_trace_exits_without_traceback(self, tmp_path, data):
        trace = tmp_path / "mutated.jsonl"
        trace.write_bytes(data)
        result = run_cli(
            ["monitor", str(spec_path("receiver")), "--trace", str(trace),
             "--log", str(tmp_path / "mutated.log")],
        )
        assert result.exit_code in (0, 1, 2, 3)
        assert "Traceback" not in result.stdout + result.stderr

    @pytest.mark.parametrize(
        "gap, reported", [(0, "can't decode byte 0xff"), (100_000, "Expecting value")],
        ids=["same-block", "blocks-apart"],
    )
    def test_malformed_line_before_invalid_utf8(self, tmp_path, gap, reported):
        # The trace is decoded a block (8 KiB) at a time, so bytes that are not
        # UTF-8 are met when their block is read: a malformed line in the same
        # block is not reported, one in an earlier block is.
        trace = tmp_path / "junk.jsonl"
        trace.write_bytes(b"not json\n" + b" \n" * gap + b"\xff\n")
        result = run_cli(["monitor", str(spec_path("sender")), "--trace", str(trace)])
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: malformed trace {trace}: ")
        assert reported in line

    @pytest.mark.parametrize("limit", [None, "0", "640"])
    def test_seq_digit_bound_ignores_int_conversion_limit(self, tmp_path, limit):
        # A trace integer has the 640-digit bound of a .tsp literal, under any
        # PYTHONINTMAXSTRDIGITS.
        env = subprocess_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        runs = []
        for digits in (640, 641):
            trace = tmp_path / f"seq{digits}.jsonl"
            trace.write_text(
                '{"participant": "r", "action": "ack", "dir": "out", "value": null, "seq": '
                + "9" * digits + "}\n"
            )
            runs.append(subprocess.run(
                [sys.executable, "-m", "tsmon.cli", "monitor", str(spec_path("receiver")),
                 "--trace", str(trace)],
                capture_output=True, text=True, env=env,
            ))
        assert runs[0].returncode == 1  # ack at R0 is illegal
        assert json.loads(runs[0].stdout)["event_index"] == int("9" * 640)
        assert runs[1].returncode == 2
        assert runs[1].stdout == ""
        [line] = runs[1].stderr.splitlines()
        assert line.endswith("seq641.jsonl: integer of more than 640 digits")
        assert line.startswith("error: malformed trace ")
        assert all("Traceback" not in run.stdout + run.stderr for run in runs)

    def _long_trace(self, tmp_path):
        """A receiver trace of about 5,000 events, whose log spans several writes."""
        run = run_abp(AbpConfig(net=NetConfig(seed=1, drop_prob=0.2), rounds=2_000))
        trace = tmp_path / "receiver.jsonl"
        write_trace(trace, run.traces["receiver"])
        return ["monitor", str(spec_path("receiver")), "--trace", str(trace)]

    def test_log_file_equals_stdout(self, tmp_path):
        args = [sys.executable, "-m", "tsmon.cli", *self._long_trace(tmp_path)]
        log = tmp_path / "receiver.log"
        to_file = subprocess.run([*args, "--log", str(log)], capture_output=True, env=subprocess_env())
        to_stdout = subprocess.run(args, capture_output=True, env=subprocess_env())
        assert to_file.returncode == to_stdout.returncode
        assert log.read_bytes() == to_stdout.stdout
        assert to_file.stdout == to_stdout.stderr  # the summary
        assert len(to_stdout.stdout.splitlines()) > 4_000

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "tsmon.cli", *self._long_trace(tmp_path)],
                stdout=write, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write)
        assert run.returncode == 1
        assert run.stderr == b""  # a run that finished would print its summary here

    def test_monitor_runs_are_byte_identical(self, tmp_path):
        self._simulate(tmp_path)
        logs = []
        for name in ("one.log", "two.log"):
            run_cli(
                ["monitor", str(spec_path("receiver")), "--trace",
                 str(tmp_path / "receiver.jsonl"), "--log", str(tmp_path / name)],
            )
            logs.append((tmp_path / name).read_bytes())
        assert logs[0] == logs[1]

def _r1_lines(count, participant="r", start=0):
    """Receiver trace lines: msg at R0, then ack and msg in turn at R1."""
    events = [TraceEvent(participant, "ack" if i % 2 else "msg", "out" if i % 2 else "in", None, i)
              for i in range(start, start + count)]
    text = io.StringIO()
    write_trace(text, events)
    return text.getvalue().splitlines(keepends=True)


class TestMonitorStream:
    """``monitor`` writes each chunk of verdicts while it reads the trace: its
    memory does not grow with the trace, and an error met part way through
    leaves a log of whole lines, a prefix of what the good lines log."""

    def _monitor(self, trace, log=None):
        args = ["monitor", str(spec_path("receiver")), "--trace", str(trace), "--warmup", "0"]
        return run_cli(args + (["--log", str(log)] if log else []))

    def test_a_late_participant_is_named_with_the_others(self, tmp_path):
        lines = _r1_lines(700)
        lines[300] = _r1_lines(1, "s", 300)[0]
        lines[650] = _r1_lines(1, "a", 650)[0]
        trace = tmp_path / "mixed.jsonl"
        trace.write_text("".join(lines))
        result = self._monitor(trace, tmp_path / "mixed.log")
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: malformed trace {trace}: events of several participants: ['a', 'r', 's']\n"
        )

    @pytest.mark.parametrize("good", [300, 3_000])
    @pytest.mark.parametrize("to_file", [True, False], ids=["log-file", "stdout"])
    def test_a_malformed_line_leaves_a_prefix_of_the_log(self, tmp_path, good, to_file):
        lines = _r1_lines(good)
        whole = tmp_path / "good.jsonl"
        whole.write_text("".join(lines))
        expected = self._monitor(whole).stdout
        trace = tmp_path / "bad.jsonl"
        trace.write_text("".join(lines) + "{\n" + "".join(_r1_lines(10, start=good)))
        log = tmp_path / "bad.log"
        result = self._monitor(trace, log if to_file else None)
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: malformed trace {trace}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        )
        written = log.read_text() if to_file else result.stdout
        assert expected.startswith(written)
        assert written == "" or written.endswith("\n")
        if to_file:
            assert result.stdout == ""

    def test_a_trace_that_cannot_be_opened(self, tmp_path):
        log = tmp_path / "r.log"
        for trace in (tmp_path / "missing.jsonl", tmp_path):
            result = self._monitor(trace, log)
            assert result.exit_code == 2
            assert result.stderr.startswith(f"error: cannot read {trace}: ")
            assert not log.exists()

    def test_a_read_error_part_way(self, tmp_path, monkeypatch):
        import tsmon.cli

        class Failing(io.StringIO):
            """The trace file, which raises EIO when its 301st line is read."""

            read = 0

            def __next__(self):
                if self.read == 300:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                self.read += 1
                return super().__next__()

        trace = tmp_path / "r.jsonl"
        trace.write_text("".join(_r1_lines(400)))
        monkeypatch.setattr(tsmon.cli, "open", lambda path, **kw: Failing(trace.read_text()), raising=False)
        result = self._monitor(trace, tmp_path / "r.log")
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot read {trace}: {os.strerror(errno.EIO)}\n"

    @pytest.mark.parametrize("malformed", [False, True], ids=["good-trace", "malformed-trace"])
    def test_a_log_that_cannot_be_written(self, tmp_path, malformed):
        # The log is opened before the trace is read, so its error wins.
        trace = tmp_path / "r.jsonl"
        trace.write_text("".join(_r1_lines(10)) + ("{\n" if malformed else ""))
        log = tmp_path / "no" / "r.log"
        result = self._monitor(trace, log)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: cannot write {log}: {os.strerror(errno.ENOENT)}\n"

    def test_the_log_cannot_be_the_trace(self, tmp_path):
        trace = tmp_path / "r.jsonl"
        text = "".join(_r1_lines(10))
        trace.write_text(text)
        alias = f"{tmp_path}{os.sep}.{os.sep}r.jsonl"
        result = self._monitor(trace, alias)
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot write {alias}: it is the trace\n"
        assert trace.read_text() == text

    def test_memory_does_not_grow_with_the_trace(self, tmp_path):
        peaks = []
        for count in (2_000, 2_000, 16_000):  # the first call fills the caches
            trace = tmp_path / f"r{count}.jsonl"
            trace.write_text("".join(_r1_lines(count)))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert self._monitor(trace, tmp_path / "r.log").exit_code == 1
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 64 * 1024, peaks


class TestUsage:
    """The argument handling that callers rely on: usage errors exit 2 with
    nothing on stdout, help exits 0, and a closed stdout or Ctrl-C exits 1
    without a traceback."""

    OPTIONS = {
        "validate": [],
        "graph": ["--dot"],
        "simulate": ["--seed", "--drop", "--dup", "--rounds", "--n", "--k", "--ack-rate", "--out"],
        "monitor": ["--trace", "--error", "--warmup", "--log"],
    }

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["validate"],
            ["monitor", str(spec_path("receiver"))],
            ["simulate", "foo"],
            ["simulate", "abp", "--seed", "x"],
            ["simulate", "abp", "--dro", "0.1"],
        ],
        ids=["no-arguments", "validate-no-spec", "monitor-no-trace", "simulate-unknown-protocol",
             "seed-not-int", "abbreviated-option"],
    )
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)  # where `simulate` would write, were it to run
        result = run_cli(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_every_command(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0
        for command in self.OPTIONS:
            assert command in result.stdout

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_help_lists_every_option(self, command):
        result = run_cli([command, "--help"])
        assert result.exit_code == 0
        for option in self.OPTIONS[command]:
            assert option in result.stdout

    def test_value_starting_with_dash_after_equals(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_cli(["simulate", "abp", "--rounds", "1", "--out=-dir"])
        assert result.exit_code == 0
        assert (tmp_path / "-dir" / "manifest.json").is_file()

    @pytest.mark.parametrize("n", [2, 5000])  # DOT output within, and far beyond, one buffer
    def test_closed_stdout_exits_1_quietly(self, tmp_path, n):
        spec = _ring_spec(tmp_path, n)
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)  # buffered, so a small output fails only on flush
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "tsmon.cli", "graph", str(spec)],
                stdout=write, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write)
        assert run.returncode == 1
        assert run.stderr == b""

    def test_ctrl_c_exits_1_with_aborted(self, monkeypatch):
        def interrupt(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr("tsmon.cli.validate", interrupt)
        result = run_cli(["validate", str(spec_path("receiver"))])
        assert result.exit_code == 1
        assert "Aborted!" in result.stderr
        assert "Traceback" not in result.stderr


def _exit_path(path, tmp_path, monkeypatch):
    """The arguments that take ``main`` down ``path``, what it ends with (an
    exit code, or the exception it lets through), and its stdout."""
    receiver = str(spec_path("receiver"))
    if path == "ok":
        return ["validate", receiver], 0, io.StringIO()
    if path == "findings":
        (tmp_path / "ratio.tsp").write_text(RATIO_SUM_SPEC)
        return ["validate", str(tmp_path / "ratio.tsp")], 1, io.StringIO()
    if path == "fail":
        return ["validate", str(tmp_path / "missing.tsp")], 2, io.StringIO()
    if path == "usage":
        return ["frobnicate"], 2, io.StringIO()
    if path == "parse":
        (tmp_path / "broken.tsp").write_text("state = {\n")
        return ["validate", str(tmp_path / "broken.tsp")], 3, io.StringIO()
    if path == "broken-pipe":
        read, write = os.pipe()
        os.close(read)
        return ["graph", str(_ring_spec(tmp_path, 5000))], 1, os.fdopen(write, "w")
    if path == "interrupt":
        def interrupt(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr("tsmon.cli.validate", interrupt)
        return ["validate", receiver], 1, io.StringIO()
    assert path == "crash"  # a peer in Pr0 receives vwb
    args = ["simulate", "bitvote", "--n", "3", "--rounds", "3", "--drop", "0.5", "--seed", "5",
            "--out", str(tmp_path)]
    return args, IllegalActionError, io.StringIO()


def _garbage(call):
    """How many unreachable objects ``call()`` leaves for the cyclic
    collector: reference counting frees everything else."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def _argparse_error():
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        _PARSER.parse_args(["frobnicate"])


# What the standard library leaves in cycles whatever the input: the closures
# of the pure-Python JSON encoder behind json.dumps(indent=2), which writes
# the manifest (33 objects on CPython 3.11), and argparse's exit on a usage
# error (6).  Measured here, since they may differ between Python versions.
MANIFEST_RESIDUE = _garbage(lambda: json.dumps({"config": {"seed": 1}, "n": [1]}, indent=2))
USAGE_RESIDUE = _garbage(_argparse_error)


def _chain(out, n):
    spec = out / "chain.tsp"
    spec.write_text(serialize_protocol(chain_spec(n)))
    return spec


def _receiver_trace(out, n):
    """A lazy receiver's trace, whose log has deviations."""
    run = run_abp(AbpConfig(net=NetConfig(seed=1, drop_prob=0.2), rounds=5 * n, ack_prob=0.7))
    trace = out / "receiver.jsonl"
    write_trace(trace, run.traces["receiver"])
    return trace


def _with_suffix(path, text):
    path.write_text(path.read_text() + text)
    return path


# Each command path: its arguments for an input of size n in a directory, its
# exit code, and the cyclic garbage it leaves, which must not depend on n.
COMMAND_PATHS = {
    "validate": (lambda out, n: ["validate", str(_chain(out, n))], 0, 0),
    "graph-to-file": (lambda out, n: ["graph", str(_chain(out, n)), "--dot", str(out / "g.dot")], 0, 0),
    "graph-to-stdout": (lambda out, n: ["graph", str(_chain(out, n))], 0, 0),
    "simulate-abp": (
        lambda out, n: ["simulate", "abp", "--rounds", str(10 * n), "--drop", "0.2", "--out", str(out)],
        0,
        MANIFEST_RESIDUE,
    ),
    "simulate-bitvote": (
        lambda out, n: ["simulate", "bitvote", "--rounds", str(n // 10), "--out", str(out)],
        0,
        MANIFEST_RESIDUE,
    ),
    "monitor-to-log": (
        lambda out, n: ["monitor", str(spec_path("receiver")), "--trace", str(_receiver_trace(out, n)),
                        "--log", str(out / "receiver.log")],
        1,
        0,
    ),
    "monitor-to-stdout": (
        lambda out, n: ["monitor", str(spec_path("receiver")), "--trace", str(_receiver_trace(out, n))],
        1,
        0,
    ),
    "findings-exit-1": (
        lambda out, n: ["validate", str(_with_suffix(_chain(out, n), "state Orphan = end\n"))], 1, 0
    ),
    "malformed-trace-exit-2": (
        lambda out, n: ["monitor", str(spec_path("receiver")), "--trace",
                        str(_with_suffix(_receiver_trace(out, n), "{\n"))],
        2,
        0,
    ),
    "usage-exit-2": (
        lambda out, n: ["simulate", "abp", *["--rounds", "1"] * n, "--seed", "x"], 2, USAGE_RESIDUE
    ),
    "parse-exit-3": (lambda out, n: ["validate", str(_with_suffix(_chain(out, n), "state = {\n"))], 3, 0),
}


class TestCollector:
    """``main`` pauses the cyclic collector while its command runs, and
    leaves it as it found it.  Reference counting frees what a command
    makes, because no command path builds cycles that grow with its input."""

    @pytest.fixture(autouse=True)
    def _keep_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_collector_is_off_while_a_command_runs(self, monkeypatch):
        seen = []

        def validate(spec):
            seen.append(gc.isenabled())
            return []

        monkeypatch.setattr("tsmon.cli.validate", validate)
        assert run_cli(["validate", str(spec_path("receiver"))]).exit_code == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "path", ["ok", "findings", "fail", "usage", "parse", "broken-pipe", "interrupt", "crash"]
    )
    def test_main_restores_the_collector(self, tmp_path, monkeypatch, path, enabled):
        args, expected, stdout = _exit_path(path, tmp_path, monkeypatch)
        (gc.enable if enabled else gc.disable)()
        with stdout, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                main(args)
            except SystemExit as exc:
                outcome = exc.code
            except Exception as exc:
                outcome = type(exc)
            assert gc.isenabled() is enabled
        assert outcome == expected

    def test_broken_pipe_leaves_no_descriptor_open(self, tmp_path, monkeypatch):
        # The handler points stdout at devnull and closes what it opened for
        # that, so repeated calls in one process hold no more descriptors.
        counts = []
        for _ in range(3):
            args, expected, stdout = _exit_path("broken-pipe", tmp_path, monkeypatch)
            with stdout, contextlib.redirect_stdout(stdout), pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == expected
            counts.append(len(os.listdir("/proc/self/fd")))
        assert counts[1:] == counts[:1] * 2

    @pytest.mark.parametrize("command", sorted(COMMAND_PATHS))
    def test_commands_make_no_cycles_that_grow(self, tmp_path, command):
        build, status, residue = COMMAND_PATHS[command]
        found = []
        for n in (20, 160):
            out = tmp_path / str(n)
            out.mkdir()
            args = build(out, n)
            assert run_cli(args).exit_code == status  # also loads the specs and fills the caches
            found.append(_garbage(lambda: run_cli(args)))
        assert found == [residue, residue]
