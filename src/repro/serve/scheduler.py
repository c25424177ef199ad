"""Seeded fixpoint runs for the service, and what they cost.

The service analyzes with the one fixpoint loop there is,
:meth:`repro.analysis.driver.Analyzer.analyze`: summaries cached for
*clean* call-graph components (Merkle fingerprint unchanged, see
:mod:`repro.serve.callgraph`) are passed as its ``seeds``, planted as
initial table contents after any resumed checkpoint.  Planted entries
start dirty, so each runs once when a sweep first reaches it, and the
sweeps go on until no explored entry is dirty.  The result then drops
the planted entries no sweep reached, so seeds the edited program no
longer reaches never reach a result.

:class:`ScheduleStats` reports the run per request.  Each spec's sweeps
fall into three roles: its first sweep *discovers* the calling patterns
that arise, a later final sweep that changed no entry *verifies* the
fixpoint, and the other sweeps *stabilize* it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..analysis.driver import Analyzer, EntrySpec, Seed
from ..analysis.results import AnalysisResult
from ..robust import STATUS_EXACT
from .callgraph import CallGraph


@dataclass
class ScheduleStats:
    """What one seeded run did (observability)."""

    sccs_total: int = 0
    seeds_planted: int = 0
    #: Planted entries no sweep reached, which the result drops.
    seeds_dropped: int = 0
    discovery_passes: int = 0
    stabilization_passes: int = 0
    verification_passes: int = 0
    #: Entries planted from a resumed checkpoint (0 = fresh run).
    resume_planted: int = 0

    def to_dict(self) -> dict:
        return {
            "sccs_total": self.sccs_total,
            "seeds_planted": self.seeds_planted,
            "seeds_dropped": self.seeds_dropped,
            "discovery_passes": self.discovery_passes,
            "stabilization_passes": self.stabilization_passes,
            "verification_passes": self.verification_passes,
            "resume_planted": self.resume_planted,
        }


class SCCScheduler:
    """Runs seeded analyses of one compiled program."""

    def __init__(self, analyzer: Analyzer, graph: Optional[CallGraph] = None):
        self.analyzer = analyzer
        self.graph = graph if graph is not None else CallGraph.from_compiled(
            analyzer.compiled
        )

    def analyze(
        self,
        specs: Sequence[EntrySpec],
        seeds: Sequence[Seed] = (),
        checkpoint=None,
        resume: Optional[dict] = None,
    ) -> Tuple[AnalysisResult, ScheduleStats]:
        """Analyze ``specs`` from ``seeds`` (and ``resume``, a validated
        checkpoint snapshot) with the analyzer's budget and degrade
        policy.  Returns the result plus what the run did."""
        result = self.analyzer.analyze(
            specs, checkpoint=checkpoint, resume=resume, seeds=seeds
        )
        stats = ScheduleStats(sccs_total=len(self.graph.sccs))
        for report in result.entry_reports:
            stats.seeds_planted += report.seeded
            stats.seeds_dropped += report.dropped
            stats.resume_planted += report.resumed
            discovery = min(report.iterations, 1)
            verification = int(
                report.status == STATUS_EXACT
                and report.iterations > 1
                and report.confirmed
            )
            stats.discovery_passes += discovery
            stats.verification_passes += verification
            stats.stabilization_passes += (
                report.iterations - discovery - verification
            )
        metrics = self.analyzer.metrics
        if metrics is not None:
            for name, value in stats.to_dict().items():
                if value:
                    metrics.counter(f"serve.scheduler.{name}").inc(value)
        return result, stats


__all__ = ["SCCScheduler", "ScheduleStats", "Seed"]
