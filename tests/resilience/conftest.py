"""Shared fixtures for the chaos suite.

Reuses the real-socket :class:`ServerHarness` from the serving tests
(loaded by file path — ``tests/`` is not a package) and guarantees that
no test leaks an armed fault plan into the rest of the run: faults are
force-uninstalled after every test, whether it used
:func:`repro.resilience.faults.injected` or not.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.resilience import faults

_SERVE_CONFTEST = (
    pathlib.Path(__file__).resolve().parent.parent / "serve" / "conftest.py"
)
_spec = importlib.util.spec_from_file_location(
    "_serve_conftest_for_resilience", _SERVE_CONFTEST
)
_serve_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_serve_conftest)

ServerHarness = _serve_conftest.ServerHarness


@pytest.fixture(autouse=True)
def _no_fault_leaks():
    """Chaos tests control their own seams exactly.

    Uninstalls before each test (an ambient plan — e.g. a CI
    ``REPRO_FAULTS`` suite leg — would skew assertions about *which*
    faults fired) and after it (a leaked plan would silently chaos the
    rest of the suite).
    """
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture()
def full_stack(monkeypatch):
    """Clear the layer-off toggles (``REPRO_HWTIER=0``,
    ``REPRO_BATCHED=0``) that CI suite legs set, for tests whose
    assertions name the ladder's rungs from the top of the stack."""
    monkeypatch.delenv("REPRO_HWTIER", raising=False)
    monkeypatch.delenv("REPRO_BATCHED", raising=False)


@pytest.fixture()
def harness_factory():
    """Build server harnesses that are always stopped at test exit."""
    created = []

    def make(**service_kwargs) -> ServerHarness:
        harness = ServerHarness(**service_kwargs)
        created.append(harness)
        return harness

    yield make
    for harness in created:
        harness.stop()
