"""Span tracing around the public functions of each recindex module.

Nothing in ``src/`` knows about tracing.  For a traced pass the
benchmark replaces module attributes that the package looks up at call
time (``recindex.cli.parse_dataset``, ``recindex.ingest.report_row``,
``recindex.axioms.check_axiom``, ...) with wrappers that record a span
per call, or only count calls where a span per call would swamp the
work (``dominates``, index evaluations).  ``Tracer.uninstall`` puts the
original functions back.

Spans are kept in memory as ``(name, parent, start, end)`` tuples and
reduced to per-layer self times when a pass ends; a layer's self time
is its spans' durations minus the time covered by their direct child
spans.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, span name).  A span name is "<layer>.<stage>"; the
# layer is the recindex module whose function the span covers.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_dataset", "ingest.parse"),
    ("cli", "build_report", "ingest.build_report"),
    ("cli", "rank_rows", "ingest.rank_rows"),
    ("ingest", "report_row", "ingest.report_row"),
    ("ingest", "make_vector", "core.make_vector"),
    ("ingest", "rec_index", "core.rec_index"),
    ("ingest", "h_index", "core.h_index"),
    ("ingest", "aux_indices", "core.aux_indices"),
    ("ingest", "rec_variants", "core.rec_variants"),
    ("core", "conjugate", "core.conjugate"),
    ("axioms", "conjugate", "core.conjugate"),
    ("axioms", "independence_matrix", "axioms.independence"),
    ("axioms", "chi_increment_bound", "axioms.chi_bound"),
    ("axioms", "sample_vectors", "enumeration.sample"),
    ("sequences", "search_incremental", "sequences.search"),
)


class Tracer:
    """Records spans and counters for one traced pass at a time."""

    def __init__(self, recindex_modules: dict) -> None:
        self.modules = recindex_modules
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        slot = len(self.spans)
        self.spans.append(None)
        self.stack.append(slot)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[slot] = (name, parent, start, end)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, module_name: str, attr: str, wrapper) -> None:
        module = self.modules[module_name]
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        m = self.modules
        for module_name, attr, name in SPANNED:
            self._replace(module_name, attr, self._spanned(name, getattr(m[module_name], attr)))
        counts = self.counts

        parse = m["cli"].parse_dataset

        def parse_dataset(*args, **kwargs):
            records = parse(*args, **kwargs)
            counts["ingest.parse_calls"] += 1
            counts["ingest.records"] += len(records)
            return records

        self._replace("cli", "parse_dataset", parse_dataset)
        for module_name in ("core", "axioms"):
            conjugate = getattr(m[module_name], "conjugate")
            self._replace(module_name, "conjugate", self._counted("core.conjugate_calls", conjugate))
        self._replace("axioms", "dominates", self._counted("core.dominates_calls", m["axioms"].dominates))

        enumerate_vectors = m["axioms"].enumerate_vectors

        def materialised(spec):
            # The package consumes the generator at once; materialising it
            # inside the span times the enumeration itself.
            vectors = list(enumerate_vectors(spec))
            counts["enumeration.enumerate_calls"] += 1
            counts["enumeration.vectors_yielded"] += len(vectors)
            return iter(vectors)

        self._replace("axioms", "enumerate_vectors", self._spanned("enumeration.enumerate", materialised))
        self._replace(
            "axioms", "sample_vectors", self._counted("enumeration.sample_calls", m["axioms"].sample_vectors)
        )

        check_axiom = m["axioms"].check_axiom
        axiom_id = m["axioms"].AxiomId
        budget_error = m["enumeration"].DomainBudgetError

        def traced_check(index, axiom, *args, **kwargs):
            counts["axioms.check_calls"] += 1
            name = f"axioms.check.{axiom_id(axiom).value}"
            try:
                return self._call(name, check_axiom, (index, axiom) + args, kwargs)
            except budget_error:
                counts["axioms.refused"] += 1
                raise

        self._replace("axioms", "check_axiom", traced_check)

        registry = m["axioms"].counterexample_registry
        index_type = m["axioms"].IndexUnderTest

        def counted_registry():
            return [
                index_type(index.name, self._counted("axioms.index_evals", index.evaluate))
                for index in registry()
            ]

        self._replace("axioms", "counterexample_registry", counted_registry)

        search = m["sequences"].search_incremental

        def counted_search(*args, **kwargs):
            outcome = search(*args, **kwargs)
            counts["sequences.search_calls"] += 1
            counts["sequences.search_expansions"] += outcome.expansions
            return outcome

        self._replace("sequences", "search_incremental", counted_search)

    def uninstall(self) -> None:
        # An attribute replaced twice (a counter over a span) was recorded
        # twice; restoring in reverse order ends at the original.
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- reduction ---------------------------------------------------------

    def take_pass(self) -> tuple[dict, list]:
        """Self time per span name and the counters of the pass just run.

        Returns ``(totals, spans)`` and clears both for the next pass.
        """
        self_time: Counter = Counter()
        spans = self.spans
        for name, parent, start, end in spans:
            duration = end - start
            self_time[name] += duration
            if parent >= 0:
                self_time[spans[parent][0]] -= duration
        inclusive_main = sum(end - start for name, _, start, end in spans if name == "cli.main")
        totals = dict(self.counts)
        for name, seconds in self_time.items():
            totals[name + "_s"] = seconds
        totals["cli.main_s"] = inclusive_main
        totals["cli.emit_s"] = self_time.get("cli.main", 0.0)
        self.spans = []
        self.counts.clear()  # the installed wrappers hold this Counter
        return totals, spans
