"""Layer spans recorded from outside the program, for the traced benchmark mode.

``Tracer.install`` replaces each traced function at the name its callers
look up (a module global or a class attribute) with a wrapper that records
a span: layer name, start, end and the index of the enclosing span.  Spans
stay in memory until the run ends.  ``uninstall`` puts the originals back,
so untraced runs execute the program without any wrapper.

``poly``, ``orders`` and ``context`` are not traced: their functions run
hundreds of thousands of times per run, so a wrapper would cost more than
the work it times.  Their cost shows up in the self time of the callers.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


def _note_verdict(counters, args, result):
    counters["is_prime.decided"] += result.status != "inconclusive"
    counters["is_prime.sections"] += len(result.sections)


def _note_krylov(counters, args, result):
    counters["minimal_polynomial.krylov_dim"] += result.total_degree()


def _note_degree(counters, args, result):
    counters["factor_univariate.degree"] += args[0].total_degree()


def _note_replays(counters, args, result):
    # verify_report returns one accounting line plus one line per replay.
    counters["verify_report.replays"] += len(result) - 1


def layer_targets(experiments, primality, groebner):
    """(owner, attribute, span name, counter hook) for every traced call site."""
    return [
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (experiments, "run_sample", "experiments.run_sample", None),
        (experiments, "verify_report", "experiments.verify_report", _note_replays),
        (experiments, "parse_ideal_source", "parse", None),
        (experiments, "parse_polynomial", "parse", None),
        (experiments, "specialize_scalar", "specialize", None),
        (experiments, "specialize_polynomial", "specialize", None),
        (experiments, "intersect_generic", "specialize", None),
        (experiments, "eliminate", "groebner.eliminate", None),
        (experiments, "is_prime", "primality.is_prime", _note_verdict),
        (primality, "minimal_polynomial", "primality.minimal_polynomial", _note_krylov),
        (primality, "factor_univariate", "factor.factor_univariate", _note_degree),
        (groebner, "buchberger", "groebner.buchberger", None),
        (groebner, "ideal_dimension", "groebner.ideal_dimension", None),
        (groebner.Ideal, "groebner", "groebner.Ideal.groebner", None),
        (groebner.GroebnerBasis, "normal_form", "groebner.normal_form", None),
    ]


class Tracer:
    """In-memory span recorder; one instance per traced repetition."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, targets):
        for owner, attr, name, note in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, note):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                note(counters, args, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover; children never overlap in this single-threaded run.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return totals

    def outside_children(self, parent_name: str, child_name: str) -> float:
        """Seconds spent in ``parent_name`` spans outside direct ``child_name`` children."""
        inside = 0.0
        total = 0.0
        for name, start, end, parent in self.spans:
            if name == parent_name:
                total += end - start
            elif (name == child_name and parent >= 0
                  and self.spans[parent][0] == parent_name):
                inside += end - start
        return total - inside

