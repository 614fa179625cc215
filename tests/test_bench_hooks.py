"""The benchmark's tracer replaces named attributes of the package; a name
that disappears turns a layer's metrics into null and fails the benchmark's
own tests.  Every hook target must therefore still resolve."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _hooks():
    return runpy.run_path(str(TRACING), run_name="bench_tracing")["HOOKS"]


@pytest.mark.parametrize(
    "target", sorted({target for hook in _hooks() for target in hook.targets})
)
def test_hook_target_resolves(target):
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(f"syncmonoid.{module_name}")
    assert callable(getattr(module, attr, None)), f"syncmonoid.{target} is gone"
