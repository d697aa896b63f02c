"""perfbench's tracer wraps layer functions by name: each name must still exist.

A renamed or deleted target makes every traced benchmark run fail, and
only a traced run would show it; this check fails in the unit tests first.
A name that still exists but is no longer called reads zero silently, so
the oracle route is also checked by counting its calls.
"""

import importlib
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

from hypertrees import hypergraphs
from hypertrees.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _plan() -> tuple:
    # executed from its source text, so nothing is cached or written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module.PLAN


@pytest.mark.parametrize("target", _plan(), ids=lambda target: target[0])
def test_tracer_plan_target_resolves(target):
    _, module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer reads class attributes through vars(), so inherited ones do not count
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))


def test_oracle_sweep_routes_through_count_profile(monkeypatch):
    # the tracer's hypergraphs.count_profile span reads the oracle only while
    # the sweep still calls the module-level name, once per profile
    calls = []
    original = hypergraphs.count_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hypergraphs, "count_profile", counted)
    result = CliRunner().invoke(main, ["oracle", "--n", "4", "--max-magnitude", "3"])
    assert result.exit_code == 0
    profiles = list(hypergraphs.iter_profiles(3, max_size=4))
    assert len(result.output.splitlines()) == len(profiles)
    assert [profile for _, profile in calls] == profiles
