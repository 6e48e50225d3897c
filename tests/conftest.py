import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from tsmon import specs

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci prints the reproduction blob of a failing example.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
