"""R10 fixture (clean): declared obs names, absolute and relative.

Linted as module ``repro.smo.obs_fixture``: every span and metric name
is a string literal declared in ``repro.obs.registry``, reached through
the package facade, a direct binding, and a relative import — all of
which the rule resolves.
"""

from repro import obs
from repro.obs import span as obs_span
from ..obs import histogram as rel_histogram

__all__ = ["work"]


def work():
    with obs_span("solver.iter", idx=0):
        obs.counter("fft.transforms").inc()
        obs.gauge("solver.loss").set(0.5)
        rel_histogram("solver.iter_seconds").observe(0.01)
    with obs.span("imaging.forward"):
        return None
