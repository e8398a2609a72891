"""The benchmark's traced pass wraps recindex functions by module and name;
each of those names must still exist, or ``run.py --trace 1`` fails."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_spanned_name_is_a_recindex_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANNED
    for module_name, attr, _span in tracing.SPANNED:
        module = importlib.import_module(f"recindex.{module_name}")
        assert callable(getattr(module, attr, None)), f"recindex.{module_name}.{attr}"
