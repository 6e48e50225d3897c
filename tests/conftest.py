import contextlib
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import settings

import tsmon
from tsmon import specs
from tsmon.cli import main

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci prints the reproduction blob of a failing example.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args, env=None):
    """Run ``tsmon`` in this process: ``main(args)`` with stdout and stderr
    captured and ``os.environ`` updated by ``env`` for the call.  An
    exception that the CLI lets through propagates."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, env or {}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            main(args)
        except SystemExit as exc:
            return CliResult(exc.code, out.getvalue(), err.getvalue())
    raise AssertionError("tsmon.cli.main returned instead of exiting")


def subprocess_env():
    """This environment, with the tsmon under test first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(tsmon.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def sender():
    return specs.load("sender")


@pytest.fixture(scope="session")
def receiver():
    return specs.load("receiver")


@pytest.fixture(scope="session")
def leader():
    return specs.load("leader")


@pytest.fixture(scope="session")
def peer():
    return specs.load("peer")


@pytest.fixture(scope="session")
def auth():
    return specs.load("auth")


@pytest.fixture(scope="session")
def counting():
    return specs.load("counting")


@pytest.fixture(scope="session")
def ask():
    """A boolean decision: ``ask`` returns true (to S1) or false (stay)."""
    from tsmon.dsl import parse_protocol

    return parse_protocol(
        "state S0 = !{ boolean ask() : <true: S1, false: S0> }\n"
        "state S1 = ?{ unit done() : S0 }\n"
    )
