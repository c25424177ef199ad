"""repro.serve — the analysis service.

Turns the one-shot analyzer into a long-lived, cache-backed service:
content-addressed fingerprints (:mod:`~repro.serve.fingerprint`), a
predicate call graph with Merkle SCC fingerprints
(:mod:`~repro.serve.callgraph`), fixpoint runs seeded from the cached
summaries of unchanged components (:mod:`~repro.serve.scheduler`), a
self-healing capped result store (:mod:`~repro.serve.store`), the
request loop itself (:mod:`~repro.serve.service`), crash isolation — one
supervised worker subprocess (:mod:`~repro.serve.pool`) behind retry
and kill policy (:mod:`~repro.serve.supervisor`) — and
horizontal scale: a network-facing asyncio gateway
(:mod:`~repro.serve.gateway`) routing by consistent-hashed program
fingerprint across bounded-queue shards (:mod:`~repro.serve.shard`)
with admission control and budget-based load shedding.  See
docs/serve.md for the architecture, the cache-soundness argument, and
the operations / failure-modes contract.

Two invariants hold across every module here.  **Soundness**: a served
response equals what a from-scratch ``analyze()`` of the current text
would produce — caching and crash recovery may change latency, never
answers (degraded results are never stored, a seed stored with its
read edges is trusted only with its whole read closure, each other
seed a sweep reaches runs once, the unreached ones are dropped, and
cache entries are fingerprint-keyed and checksummed).  **Observation is inert**: the
:mod:`repro.obs` metrics and traces threaded through the service
(``metrics`` op, ``stats``, worker delta shipping) only record; they
are guaranteed not to alter any response, and docs/observability.md
catalogues what they record.
"""

from .callgraph import CallGraph, call_edges
from .fingerprint import (
    clause_fingerprint,
    config_fingerprint,
    entry_fingerprint,
    predicate_fingerprint,
    predicate_fingerprints,
    program_fingerprint,
    request_fingerprint,
)
from .gateway import ConsistentHashRing, Gateway, GatewayConfig, route_key
from .pool import Worker, WorkerCrashed, WorkerTimeout
from .scheduler import SCCScheduler, ScheduleStats
from .shard import Shard, ShardSaturated, shed_response
from .service import (
    HIT,
    INCREMENTAL,
    MAX_REQUEST_LINE,
    MISS,
    AnalysisService,
    ServiceConfig,
    run_batch,
    serve_loop,
)
from .store import DiskStore, ResultStore
from .supervisor import Supervisor, SupervisorConfig

__all__ = [
    "HIT",
    "INCREMENTAL",
    "MAX_REQUEST_LINE",
    "MISS",
    "AnalysisService",
    "CallGraph",
    "ConsistentHashRing",
    "DiskStore",
    "Gateway",
    "GatewayConfig",
    "ResultStore",
    "SCCScheduler",
    "ScheduleStats",
    "ServiceConfig",
    "Shard",
    "ShardSaturated",
    "Supervisor",
    "SupervisorConfig",
    "Worker",
    "WorkerCrashed",
    "WorkerTimeout",
    "call_edges",
    "clause_fingerprint",
    "config_fingerprint",
    "entry_fingerprint",
    "predicate_fingerprint",
    "predicate_fingerprints",
    "program_fingerprint",
    "request_fingerprint",
    "route_key",
    "run_batch",
    "serve_loop",
    "shed_response",
]
