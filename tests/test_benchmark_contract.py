"""The names the benchmark tracer wraps must exist in qwave.

`perfbench/tracing.py` patches each `(module, attr)` of its WRAPPED table and
reads `spectral.dft_matrix.cache_info()`.  A library change that drops one of
those names would otherwise pass the suite and fail only in a traced
benchmark run.  The module is imported, never installed.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
    assert callable(tracing.spectral.dft_matrix.cache_info)
