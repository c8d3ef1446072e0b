import os
from pathlib import Path

import pytest

import nsx
from nsx.runner import RunConfig, run_suite
from nsx.symexpr import DEFAULT_REGISTRY


@pytest.fixture(scope="session")
def suite():
    """One full suite run shared by the regression and acceptance tests.

    Everything in the suite is deterministic for a fixed config, so the
    cached report is as good as a fresh one; tests that need to compare
    two runs (determinism) do their own runs.
    """
    return run_suite(config=RunConfig())


@pytest.fixture(scope="session")
def by_id(suite):
    return {s.sid: s for s in suite.scenarios}


@pytest.fixture
def register_opaque(monkeypatch):
    """DEFAULT_REGISTRY.register for one test: the registry gets a copy of
    its entries for the test, and the original entries back afterwards."""
    monkeypatch.setattr(DEFAULT_REGISTRY, "_numeric", dict(DEFAULT_REGISTRY._numeric))
    return DEFAULT_REGISTRY.register


@pytest.fixture(scope="session")
def cli_env():
    """Environment in which a subprocess imports the nsx these tests imported.

    The package's parent directory goes first on PYTHONPATH as an
    absolute path, so a relative entry such as `src` (which stops
    resolving once the working directory changes) cannot leave the
    subprocess without nsx or with a different copy of it.
    """
    env = dict(os.environ)
    root = str(Path(nsx.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env
