"""Every library function that the benchmark's traced pass wraps still
exists: ``perfbench/tracing.py`` looks its ``TARGETS`` up by module and
attribute name, and one that no longer resolves makes
``perfbench/run.py --trace 1`` raise."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span, module, attr", tracing.TARGETS,
                         ids=[span for span, _, _ in tracing.TARGETS])
def test_traced_target_resolves(span, module, attr):
    original, owners = tracing._holders(module, attr)  # the harness's own lookup
    assert callable(original), span
    assert owners, span
