"""Spans and counts recorded by the benchmark around calls into the library.

A span has a name, a start and an end (``perf_counter`` seconds), the index
of the span that was open when it began, the unit it belongs to and the
round it ran in.  Spans are kept in memory and written out when the run
ends.  ``NullTracer`` is what untraced runs use: its spans do nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class NullTracer:
    enabled = False
    round = 0

    def span(self, name, unit=None):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # round -> name -> sum
        self.round = 0
        self._open = []

    @contextlib.contextmanager
    def span(self, name, unit=None):
        parent = self._open[-1] if self._open else None
        if unit is None and parent is not None:
            unit = self.spans[parent]["unit"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "unit": unit, "round": self.round}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, value):
        self.counts[self.round][name] += value

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def per_round_ms(self):
        """Median over rounds of each span name's total milliseconds."""
        totals = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            totals[s["name"]][s["round"]] += (s["end"] - s["start"]) * 1000.0
        rounds = sorted({s["round"] for s in self.spans})
        return {name: statistics.median(by_round.get(r, 0.0) for r in rounds)
                for name, by_round in totals.items()}

    def per_round_counts(self):
        """Counts of the first round; every round repeats the same work."""
        return dict(self.counts[min(self.counts)]) if self.counts else {}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {r: dict(c) for r, c in self.counts.items()}}, fh)
