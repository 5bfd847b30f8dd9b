"""Spans recorded from outside the program, around calls into each layer.

While a ``Tracer`` is installed, the layer functions that ``pfsc.report``,
``pfsc.montecarlo`` and ``pfsc.uncertainty`` call from the layers below are
replaced by wrappers that record one span per call: name, start, end,
parent and the op it belongs to.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import pfsc.montecarlo
import pfsc.report
import pfsc.uncertainty


def _iterations(state):
    return {"iterations": state.iterations}


def _dim_h(result):
    return {"dim_H": result.x.shape[0]}


def _trials(mc):
    return {"trials": mc.n_trials, "trials_ok": mc.n_trials - mc.trials_failed}


#: (module, attribute, span name, counts taken from the return value)
LAYER_CALLS = (
    (pfsc.report, "load_network", "network.load_network", None),
    (pfsc.report, "build_admittance", "network.build_admittance", None),
    (pfsc.report, "solve_load_flow", "loadflow.solve_load_flow", _iterations),
    (pfsc.report, "assemble_problem", "coefficients.assemble_problem", None),
    (pfsc.report, "solve_coefficients", "coefficients.solve_coefficients", _dim_h),
    (pfsc.report, "project_polar_noise", "uncertainty.project_polar_noise", None),
    (pfsc.report, "analytical_sigma", "uncertainty.analytical_sigma", None),
    (pfsc.uncertainty, "propagate_to_H", "uncertainty.propagate_to_H", None),
    (pfsc.uncertainty, "inverse_self_variance", "uncertainty.inverse_self_variance", None),
    (pfsc.uncertainty, "coefficient_variance", "uncertainty.coefficient_variance", None),
    (pfsc.report, "run_monte_carlo", "montecarlo.run_monte_carlo", _trials),
    (pfsc.montecarlo, "assemble_from_raw", "coefficients.assemble_from_raw", None),
)


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = Span(self.op, name, time.perf_counter(), parent=parent)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                rec.counts.update(counts(out))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer calls for the duration of the block."""
        saved = []
        for module, attr, name, counts in LAYER_CALLS:
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"not traced: {module.__name__}.{attr} is gone", file=sys.stderr)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def self_time(spans, index):
    """Duration of ``spans[index]`` minus the part its children cover."""
    span = spans[index]
    covered, reach = 0.0, span.start
    children = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in spans
        if c.parent == index
    )
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def op_totals(spans, op):
    """Per-op sums: seconds by span name and counts by count name."""
    seconds, counts = {}, {}
    for s in spans:
        if s.op != op:
            continue
        seconds[s.name] = seconds.get(s.name, 0.0) + s.duration
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
    return seconds, counts
