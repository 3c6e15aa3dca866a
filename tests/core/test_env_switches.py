"""The on-by-default environment switches share one parser.

``REPRO_BATCHED``, ``REPRO_DEGRADE``, ``REPRO_HWTIER`` and
``REPRO_STATIC`` each turn their layer off for "0", "false" or "off"
(any case, surrounding whitespace ignored) and leave it on when unset
or set to anything else.  Each switch is checked through the code that
consumes it, not just through :func:`repro.core.config.env_switch`.
"""

import pytest

from repro.api import AnalysisSession
from repro.core import AnalysisConfig, EngineFeatures
from repro.core.config import env_switch, resolve_hw_tier
from repro.fpcore import parse_fpcore
from repro.resilience.ladder import degradation_enabled

CORE = parse_fpcore("(FPCore (x) :pre (<= 1 x 2) (- (+ x 1) x))")


def static_attached() -> bool:
    session = AnalysisSession(
        config=AnalysisConfig(shadow_precision=128), num_points=2,
        result_cache_size=0,
    )
    return "static" in session.analyze(CORE).extra


SWITCHES = {
    "REPRO_BATCHED": lambda: EngineFeatures.for_engine("compiled").batched,
    "REPRO_DEGRADE": lambda: degradation_enabled(None),
    "REPRO_HWTIER": lambda: resolve_hw_tier(
        AnalysisConfig(precision_policy="adaptive")
    ),
    "REPRO_STATIC": static_attached,
}


@pytest.mark.parametrize("name", sorted(SWITCHES))
@pytest.mark.parametrize("value", ["0", "false", "off", " OFF "])
def test_off_values_turn_the_switch_off(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert env_switch(name) is False
    assert not SWITCHES[name]()


@pytest.mark.parametrize("name", sorted(SWITCHES))
@pytest.mark.parametrize("value", ["1", None])
def test_one_or_unset_leaves_the_switch_on(monkeypatch, name, value):
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)
    assert env_switch(name) is True
    assert SWITCHES[name]()
