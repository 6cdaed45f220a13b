"""Live observatory service: collect, append, analyse, expose.

The batch pipeline (``repro simulate`` → ``repro analyze``) collects a
whole horizon at once.  This package is the long-lived counterpart —
the shape of the paper's actual data-collection framework, which ran
continuously for years: a scheduler collects one window interval at a
time, appends it crash-safely to a live out-of-core store
(:class:`~repro.core.store.StoreAppender`), folds it into incremental
analyses, and exposes the run's metrics on a Prometheus scrape
endpoint while collection is in flight.

Determinism is inherited, not re-implemented: each tick steps the
batch engine's own kernel one window further
(:class:`~repro.sim.engine.LiveShardSimulator`), so a killed-and-
restarted service catches up by replaying the committed intervals and
converges on a dataset bit-identical — same SHA-256 — to an
uninterrupted batch run.
"""

from repro.serve.endpoint import MetricsEndpoint
from repro.serve.service import ObservatoryService, ServeReport

__all__ = [
    "MetricsEndpoint",
    "ObservatoryService",
    "ServeReport",
]
