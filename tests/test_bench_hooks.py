"""The benchmark's traced run finds every package name it wraps.

perfbench/tracing.py wraps functions at the module attributes through which
the package calls them. A refactor that renames or moves one of them leaves
the traced run without that layer's figures, so this test reads the target
lists from tracing.py and resolves each entry against the package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner,attr,span", tracing.SPAN_TARGETS + tracing.EDGE_TARGETS)
def test_trace_target_resolves(owner, attr, span):
    found = tracing._resolve("edgeanomaly", owner, attr)
    assert found is not None, f"{owner}.{attr} (traced as {span}) is gone"
    obj, name = found
    assert callable(getattr(obj, name))

