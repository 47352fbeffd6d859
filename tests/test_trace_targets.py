"""The benchmark's tracer wraps package functions by (module, attribute) name.

perfbench/tracing.py is loaded read-only from its path: a rename in the
package then fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, a, _ in TRACING.SPAN_TARGETS + TRACING.COUNT_TARGETS] + [TRACING.SITE_BUILDER],
    ids=lambda value: value,
)
def test_traced_target_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
