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


def test_every_registry_cell_goes_through_the_module_check_axiom(monkeypatch):
    # The traced pass counts and times cells by wrapping ``axioms.check_axiom``,
    # so the registry call must look that name up for each cell.
    from recindex import axioms
    from recindex.enumeration import DomainBudgetError, DomainSpec

    check, calls, refused = axioms.check_axiom, [], []

    def counted(index, axiom, domain, **kwargs):
        calls.append((index, axiom, domain, kwargs["session"]))
        try:
            return check(index, axiom, domain, **kwargs)
        except DomainBudgetError:
            refused.append((index.name, axiom))
            raise

    monkeypatch.setattr(axioms, "check_axiom", counted)
    registry = axioms.counterexample_registry()
    box = axioms.build_domain(DomainSpec(3, 3))
    axioms.check_registry(registry, box)
    assert len(calls) == len(registry) * len(axioms.AxiomId) == 104
    expected = [(index, axiom) for index in registry for axiom in axioms.AxiomId]
    assert [(index, axiom) for index, axiom, _, _ in calls] == expected
    assert all(s.index is index and s.domain is domain is box for index, _, domain, s in calls)
    assert not refused

    calls.clear()
    sample = axioms.build_domain(DomainSpec(14, 14, seed=1), sample_size=40)
    rows = axioms.check_registry(registry, sample)
    assert len(calls) == 104
    assert refused == [(index.name, axioms.AxiomId.UNIFORM_INCREMENT) for index in registry]
    assert all(row["UI"] is None for row in rows.values())
