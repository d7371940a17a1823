"""The cheap demos run end to end, in-process, so an API change that
breaks one fails here.  Demos 05 and 06 train whole method suites and
ladders; the acceptance tests cover what they show, and here they are
only loaded, which binds every name they import without training."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_network_kernel", "02_class_registry", "03_synthetic_scenarios", "04_aggregation_mechanics",
])
def test_demo_runs(name, capsys) -> None:
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["05_method_comparison", "06_client_ladder"])
def test_training_demo_loads(name) -> None:
    namespace = runpy.run_path(str(DEMOS / f"{name}.py"), run_name="demo")
    assert callable(namespace["main"])
