"""The analysis service: requests in, cached or freshly computed facts out.

:class:`AnalysisService` is the long-lived object behind the
``repro-serve`` CLI.  One request names a program (inline text or a
file), entry calling patterns, and optionally analysis knobs and a
budget; the response carries the analysis (or lint) facts plus cache
and degradation status.  The serving invariant:

    **Served results are the results a from-scratch ``analyze()`` of the
    current program text would produce.**  The cache can only make
    answers faster, never different, because everything it holds is
    keyed by fingerprints covering everything the analysis depends on
    (and checksummed on disk): a full-result hit is the stored answer,
    and a partially-seeded run takes each seed stored with its read
    edges from the table, runs each other seed it reaches once, and
    drops the ones the program no longer reaches (see
    :mod:`repro.serve.scheduler`).
    The fixpoint loop itself raises a seed that sits *below* the
    fixpoint, but a seed *above* it would survive — sound but coarser —
    so exact answers rest on those keys and checksums.

Request protocol (JSON object per line on stdin, response per line on
stdout; see docs/serve.md):

``{"op": "analyze", "file": "p.pl", "entries": ["main(g, var)"]}``
``{"op": "analyze", "text": "...", "entries": [...], "budget": {"max_steps": 10000}}``
``{"op": "lint", "file": "p.pl", "entries": [...]}``
``{"op": "stats"}`` / ``{"op": "invalidate"}`` / ``{"op": "shutdown"}``

Degraded results (budget trips, injected faults) are reported with
``"status": "degraded"`` and are **never stored**: a later request with
a healthier budget must recompute, not inherit imprecision.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..analysis.codec import entry_from_json, table_to_json
from ..analysis.driver import Analyzer, EntrySpec, Seed, parse_entry_spec
from ..errors import ReproError
from ..prolog.library import with_library
from ..prolog.program import Program, normalize_program
from ..robust import Budget
from ..wam.compile import CompiledProgram, CompilerOptions, compile_program
from .callgraph import CallGraph
from .fingerprint import (
    _hash,
    config_fingerprint,
    entry_fingerprint,
    predicate_fingerprints,
    request_fingerprint,
    text_fingerprint,
)
from .scheduler import SCCScheduler
from .store import DiskStore, ResultStore

#: Cache outcome of one analyze request.
HIT = "hit"           # full-result fingerprint match; no fixpoint ran
INCREMENTAL = "incremental"  # some SCC summaries reused, rest recomputed
MISS = "miss"         # nothing reusable

#: Entries each of the service's memos holds before it evicts the least
#: recently used one.
MEMO_ENTRIES = 64


class _Memo(OrderedDict):
    """A dict of at most :data:`MEMO_ENTRIES` items, evicting the least
    recently used."""

    def recall(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def remember(self, key, value):
        self[key] = value
        if len(self) > MEMO_ENTRIES:
            self.popitem(last=False)
        return value


class Prepared(NamedTuple):
    """One program text, parsed, compiled and fingerprinted."""

    program: Program
    compiled: CompiledProgram
    graph: CallGraph
    merkle: List[str]


@dataclass
class ServiceConfig:
    """Server-wide settings; per-request knobs may tighten, not loosen."""

    depth: int = 4
    subsumption: bool = False
    on_undefined: str = "error"
    environment_trimming: bool = True
    library: bool = False
    #: Server-wide per-request resource caps (None = unlimited).
    budget: Optional[Budget] = None
    #: In-memory store caps.
    max_entries: Optional[int] = 1024
    max_bytes: Optional[int] = 64 * 1024 * 1024
    #: Optional on-disk store directory.
    store_dir: Optional[str] = None
    #: Write-ahead journal for the disk store (replayed on startup).
    journal: bool = False
    #: Checkpoint cadence: snapshot the extension table every this many
    #: fixpoint passes (plus once on budget-deadline proximity), so a
    #: crashed or budget-tripped request resumes instead of restarting.
    #: None disables checkpointing entirely.
    checkpoint_every: Optional[int] = 16


class AnalysisService:
    """A long-lived analyzer with content-addressed result reuse."""

    def __init__(self, config: Optional[ServiceConfig] = None, tracer=None):
        self.config = config if config is not None else ServiceConfig()
        #: repro.obs: the service always carries a registry — per-request
        #: accounting costs a few counter bumps, and the ``metrics`` op /
        #: ``stats`` snapshot need something to report.  Every analyzer
        #: the service creates records each entry spec's instruction and
        #: table counters into it once the spec is done.
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        #: Optional repro.obs.Tracer for request → entry spec spans
        #: (the ``--trace-out`` flag of repro-serve).
        self.tracer = tracer
        self.store = ResultStore(
            max_entries=self.config.max_entries,
            max_bytes=self.config.max_bytes,
            disk=(
                DiskStore(
                    self.config.store_dir,
                    journal=self.config.journal,
                    metrics=self.metrics,
                )
                if self.config.store_dir
                else None
            ),
            metrics=self.metrics,
        )
        self.requests_served = 0
        #: Front-end memos, so a repeated request parses nothing: raw
        #: text fingerprint → Prepared; program fingerprint → Prepared
        #: (an edit to comments, layout or variable names recompiles
        #: nothing); (indicator, predicate fingerprint) → unlinked
        #: PredicateCode (an edit recompiles only the predicates it
        #: changed); entry text → (EntrySpec, entry fingerprint).
        self._by_text = _Memo()
        self._by_program = _Memo()
        self._units = _Memo()
        self._specs = _Memo()
        #: Extra checkpoint sink: the worker loop points this at stdout
        #: so every snapshot also reaches the supervisor as an interim
        #: wire line (resume-on-retry survives the worker's death even
        #: without a shared disk store).
        self.checkpoint_wire_sink = None
        #: Chaos hook (set per request by the worker loop from a
        #: ``_chaos {"kill_at_iteration": m}`` directive): SIGKILL this
        #: process at the m-th fixpoint pass of the request, *after*
        #: the pass's checkpoint decision — the deterministic stand-in
        #: for a crash mid-fixpoint.
        self.kill_at_iteration: Optional[int] = None

    def close(self) -> None:
        """Close the disk store's journal file, if it keeps one open."""
        if self.store.disk is not None:
            self.store.disk.close()

    # ------------------------------------------------------------------
    # Request handling.

    def handle(self, request: dict, resume: Optional[dict] = None) -> dict:
        """Process one request dict; never raises for request-level
        failures — errors come back as ``{"ok": false, ...}``.

        ``resume`` is a checkpoint snapshot from a trusted caller: the
        worker loop passes the one its supervisor retained.  A
        ``"resume"`` field in the request itself is ignored, so a client
        cannot plant a table."""
        started = time.perf_counter()
        op = request.get("op", "analyze")
        # Trace context (docs/tracing.md): stripped like _chaos, and —
        # when this service traces — turned into a cross-process parent
        # edge on the request's root span.
        trace_context = request.pop("_trace", None)
        if self.tracer is not None:
            self.tracer.begin(
                "request",
                _parent_ref=(
                    trace_context.get("parent")
                    if isinstance(trace_context, dict) else None
                ),
                op=op,
            )
        try:
            response = self._dispatch(request, resume)
        except ReproError as error:
            response = {"ok": False, "error": str(error)}
        except (OSError, ValueError, KeyError, TypeError) as error:
            response = {"ok": False, "error": f"bad request: {error}"}
        except RecursionError as error:
            # A term nested deeper than a recursive walk can follow, or
            # a cyclic one: this request fails, the service serves on.
            response = {"ok": False, "error": f"too deep to analyze: {error}"}
        finally:
            if self.tracer is not None:
                self.tracer.end()
        if "id" in request:
            response["id"] = request["id"]
        response.setdefault("op", request.get("op"))
        elapsed = time.perf_counter() - started
        response["elapsed_ms"] = round(elapsed * 1000.0, 3)
        self.requests_served += 1
        metrics = self.metrics
        metrics.counter("serve.requests", op=str(op)).inc()
        metrics.histogram("serve.request.seconds").observe(elapsed)
        if not response.get("ok", True):
            metrics.counter("serve.errors").inc()
        return response

    def _dispatch(self, request: dict, resume: Optional[dict]) -> dict:
        op = request.get("op", "analyze")
        if op == "analyze":
            return self._analyze_core(
                request, need_live=False, attached=resume
            )[0]
        if op == "lint":
            return self._lint(request, resume)
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return {"ok": True, "metrics": self.metrics.snapshot()}
        if op == "invalidate":
            self.store.clear()
            for memo in (
                self._by_text, self._by_program, self._units, self._specs
            ):
                memo.clear()
            return {"ok": True, "invalidated": True}
        if op == "shutdown":
            return {"ok": True, "shutdown": True}
        raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------

    def _load_text(self, request: dict) -> str:
        field = "text" if "text" in request else "file"
        if field not in request:
            raise ValueError("request needs 'text' or 'file'")
        value = request[field]
        # An int "file" would open (and close) that file descriptor.
        if not isinstance(value, str):
            raise ValueError(f"{field!r} must be a string")
        if field == "text":
            return value
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()

    def _budget_for(self, request: dict) -> Optional[Budget]:
        """The request's effective budget: server caps tightened by the
        request's own limits; a fresh object every time."""
        requested = Budget.from_wire(request.get("budget"))
        base = self.config.budget
        if base is not None:
            return base.tightened(requested)
        if requested is not None:
            return requested.copy()
        return None

    def _prepare(self, text: str) -> Prepared:
        """Parse, normalize, compile and fingerprint ``text``, memoized
        twice: by the raw text (a repeated text parses nothing) and by
        the fingerprints of the normalized program, which cover the
        ``$or_n``/``$not_n`` auxiliaries the code calls (a text that
        differs only in comments, layout or variable names is parsed
        but not compiled).  Counts which level answered as
        ``serve.prepare{source=...}``."""
        text_key = text_fingerprint(text)
        prepared = self._by_text.recall(text_key)
        source = "text"
        if prepared is None:
            config = self.config
            program = (
                with_library(text) if config.library
                else Program.from_text(text)
            )
            normalized = normalize_program(program)
            fps = predicate_fingerprints(normalized)
            program_key = _hash(
                ["prepared"]
                + sorted(f"{i[0]}/{i[1]}:{fp}" for i, fp in fps.items())
            )
            held = self._by_program.recall(program_key)
            if held is not None:
                source = "program"
                # This text's own parse, so lint reports its positions
                # and variable names.
                prepared = held._replace(program=program)
            else:
                source = "parse"
                compiled = self._compile(normalized, fps)
                graph = CallGraph.from_compiled(compiled)
                prepared = self._by_program.remember(
                    program_key,
                    Prepared(
                        program, compiled, graph,
                        graph.merkle_fingerprints(fps),
                    ),
                )
            self._by_text.remember(text_key, prepared)
        self.metrics.counter("serve.prepare", source=source).inc()
        return prepared

    def _compile(self, normalized: Program, fps) -> CompiledProgram:
        """Compile and link ``normalized``, reusing the unit memo's code
        for every predicate whose fingerprint it holds.  Counts the
        linked units as ``serve.compile.units{source=reused|compiled}``."""
        reuse = {}
        for indicator, fp in fps.items():
            unit = self._units.recall((indicator, fp))
            if unit is not None:
                reuse[indicator] = unit
        compiled = compile_program(
            normalized,
            CompilerOptions(
                environment_trimming=self.config.environment_trimming
            ),
            reuse,
        )
        for indicator, unit in compiled.units.items():
            if indicator not in reuse:
                self._units.remember((indicator, fps[indicator]), unit)
        for source, count in (
            ("reused", len(reuse)),
            ("compiled", len(compiled.units) - len(reuse)),
        ):
            if count:
                self.metrics.counter(
                    "serve.compile.units", source=source
                ).inc(count)
        return compiled

    def _entry_specs(self, entries) -> List[Tuple[EntrySpec, str]]:
        """Each entry's parsed spec and fingerprint, memoized by entry
        text."""
        keyed = []
        for entry in entries:
            # Only text is memoized: a JSON object is unhashable, and an
            # in-process caller's Term or EntrySpec is not a wire value.
            is_text = isinstance(entry, str)
            pair = self._specs.recall(entry) if is_text else None
            if pair is None:
                spec = parse_entry_spec(entry)
                pair = (spec, entry_fingerprint(spec))
                if is_text:
                    self._specs.remember(entry, pair)
            keyed.append(pair)
        return keyed

    def _config_fp(self) -> str:
        config = self.config
        return config_fingerprint(
            depth=config.depth,
            subsumption=config.subsumption,
            on_undefined=config.on_undefined,
            environment_trimming=config.environment_trimming,
        )

    # ------------------------------------------------------------------

    def _analyze_core(
        self, request: dict, need_live: bool, attached: Optional[dict]
    ):
        """The shared analyze path; ``attached`` is the trusted resume
        snapshot :meth:`handle` was given.

        Returns ``(response, live_result, prepared)``; ``live_result``
        is the in-process :class:`AnalysisResult` when the fixpoint
        actually ran (or when ``need_live`` forces a run on a
        full-result hit — fully seeded, so the trusted summaries answer
        it), else None; ``prepared`` is the
        :class:`Prepared` program that was analyzed.
        """
        text = self._load_text(request)
        entries = request.get("entries")
        if not entries:
            raise ValueError("request needs non-empty 'entries'")
        prepared = self._prepare(text)
        graph, merkle = prepared.graph, prepared.merkle
        keyed = self._entry_specs(entries)
        specs = [spec for spec, _ in keyed]
        config_fp = self._config_fp()
        reachable = graph.reachable_sccs([spec.indicator for spec in specs])
        request_fp = request_fingerprint(
            config_fp, [fp for _, fp in keyed], [merkle[i] for i in reachable]
        )
        scc_keys = [f"scc:{merkle[i]}:{config_fp}" for i in reachable]
        # A malformed budget is refused whatever the cache holds.
        budget = self._budget_for(request)
        # ---- full-result hit: no fixpoint, no seeds decoded -----------
        cached = None if need_live else self.store.get(f"result:{request_fp}")
        if cached is not None:
            self.metrics.counter("serve.cache", outcome=HIT).inc()
            return (
                {
                    "ok": True,
                    "status": cached["status"],
                    "result": cached,
                    "cache": {
                        "outcome": HIT,
                        "sccs_total": len(reachable),
                        "sccs_seeded": sum(
                            1 for key in scc_keys if key in self.store
                        ),
                    },
                },
                None,
                prepared,
            )
        # ---- gather seeds from clean SCC summaries --------------------
        seeds: List[Seed] = []
        seeded_sccs = 0
        for key in scc_keys:
            stored = self.store.get(key)
            if stored is None:
                continue
            seeded_sccs += 1
            for item in stored["entries"]:
                seeds.append(entry_from_json(item))
        # ---- resume from the best valid checkpoint --------------------
        # Two sources, the furthest cursor wins: the attached one (the
        # supervisor replays the best snapshot a crashed worker shipped
        # up the wire) and one in the durable store (survives the
        # worker dying).  Both sources are best-effort: an invalid
        # snapshot is ignored and counted, never an error.
        from ..robust import checkpoint as ckpt

        checkpoint_key = f"{self.store.CHECKPOINT_PREFIX}{request_fp}"
        resume = None
        for candidate in (
            attached, self.store.get_checkpoint(checkpoint_key)
        ):
            if candidate is None:
                continue
            loaded = ckpt.load(
                candidate, config=config_fp, key=request_fp,
                metrics=self.metrics,
            )
            if loaded is not None and (
                resume is None
                or ckpt.cursor_iterations(loaded)
                > ckpt.cursor_iterations(resume)
            ):
                resume = loaded
        resume_base = ckpt.cursor_iterations(resume) if resume else 0
        if resume is not None:
            self.metrics.counter("resume.attempts").inc()
        # ---- checkpoint policy ----------------------------------------
        policy = None
        if self.config.checkpoint_every is not None or self.kill_at_iteration:
            kill_at = self.kill_at_iteration

            def checkpoint_sink(snap: dict) -> None:
                # Keep the furthest snapshot: another worker sharing
                # the store may have banked more passes of this request.
                held = self.store.get_checkpoint(checkpoint_key)
                if held is None or (
                    ckpt.cursor_iterations(snap)
                    >= ckpt.cursor_iterations(held)
                ):
                    self.store.put_checkpoint(checkpoint_key, snap)
                if self.checkpoint_wire_sink is not None:
                    self.checkpoint_wire_sink(snap)

            def on_pass(pass_number: int) -> None:
                if kill_at is not None and pass_number >= kill_at:
                    import os
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)

            policy = ckpt.CheckpointPolicy(
                checkpoint_sink,
                every=self.config.checkpoint_every,
                budget=budget,
                config=config_fp,
                key=request_fp,
                entries=specs,
                base_iterations=resume_base,
                attempts=(
                    resume["cursor"].get("attempts", 0) + 1 if resume else 1
                ),
                metrics=self.metrics,
                on_pass=on_pass if kill_at is not None else None,
            )
        # ---- run the seeded fixpoint ----------------------------------
        config = self.config
        analyzer = Analyzer(
            prepared.compiled,
            depth=config.depth,
            subsumption=config.subsumption,
            on_undefined=config.on_undefined,
            budget=budget,
            on_budget=request.get("on_budget", "degrade"),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        result, stats = SCCScheduler(analyzer, graph).analyze(
            specs, seeds=seeds, checkpoint=policy, resume=resume
        )
        if result.status == "exact":
            # Forward progress complete: the checkpoint is garbage now.
            self.store.drop_checkpoint(checkpoint_key)
        stable = result.stable_dict()
        full_hit = need_live and f"result:{request_fp}" in self.store
        outcome = HIT if full_hit else (INCREMENTAL if seeds else MISS)
        self.metrics.counter("serve.cache", outcome=outcome).inc()
        # ---- store (exact results only) -------------------------------
        if result.status == "exact":
            self.store.put(f"result:{request_fp}", stable)
            # A component whose entries are all planted seeds, unchanged,
            # is stored already, with the calling patterns this request
            # did not reach as well: it is not stored again.
            planted = set(seeds)
            dirty_sccs = {
                owner
                for indicator, entry in result.table.all_entries()
                if (owner := graph.scc_of.get(indicator)) is not None
                and (
                    indicator, entry.calling, entry.success,
                    entry.may_share, frozenset(entry.reads),
                ) not in planted
            }
            for scc_index in dirty_sccs:
                self.store.put(
                    f"scc:{merkle[scc_index]}:{config_fp}",
                    {"entries": table_to_json(
                        result.table, graph.members(scc_index)
                    )},
                )
        response = {
            "ok": True,
            "status": result.status,
            "result": stable,
            "timing": {
                "seconds": result.seconds,
                "iterations": result.iterations,
                "instructions": result.instructions_executed,
            },
            "cache": {
                "outcome": outcome,
                "sccs_total": len(reachable),
                "sccs_seeded": seeded_sccs,
                "schedule": stats.to_dict(),
            },
        }
        return response, result, prepared

    # ------------------------------------------------------------------

    def _lint(self, request: dict, resume: Optional[dict]) -> dict:
        """Lint = the (cached) analysis plus
        :func:`~repro.lint.assemble_report` (analysis status, bytecode
        verifier, source rules), which is cheap and runs fresh every time.

        The rule engine needs a live :class:`AnalysisResult`, so a
        full-result cache hit still runs the fixpoint, fully seeded: the
        entry's trusted summary answers it, and the sweep runs nothing
        but its ``halt``."""
        from ..lint import assemble_report

        analysis, result, prepared = self._analyze_core(
            request, need_live=True, attached=resume
        )
        if not analysis.get("ok") or result is None:
            return analysis
        report = assemble_report(
            prepared.compiled,
            prepared.program,
            result,
            file=request.get("file", "?"),
        )
        return {
            "ok": True,
            "status": result.status,
            "cache": analysis["cache"],
            "lint": report.to_dict(),
        }

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "requests_served": self.requests_served,
            "store": self.store.stats(),
            "programs_prepared": len(self._by_program),
            "metrics": self.metrics.snapshot(),
        }


# ----------------------------------------------------------------------
# The request loop and batch mode (used by the repro-serve CLI).


#: Longest request line serve_loop accepts; beyond it the line is
#: drained and answered with an error instead of being buffered whole.
MAX_REQUEST_LINE = 10 * 1024 * 1024


def serve_loop(
    service, stdin, stdout, max_line_bytes: int = MAX_REQUEST_LINE
) -> int:
    """JSON-lines request/response loop; returns the exit status.

    Hardened against hostile or broken clients: malformed JSON, a
    non-object request, or a line longer than ``max_line_bytes``
    (drained without ever holding it in memory) each produce a
    structured ``{"ok": false, ...}`` response and the loop keeps
    serving; a ``shutdown`` request, EOF, or EOF mid-line ends the loop
    cleanly with status 0.  ``service`` is anything with
    ``handle(request) -> response`` — the in-process
    :class:`AnalysisService` or a :class:`~repro.serve.supervisor.Supervisor`.

    Shed input — oversized and malformed lines — is counted in the
    service's metrics registry (``serve.input.oversized`` /
    ``serve.input.malformed``), not only answered with a structured
    error, so operators can see protocol abuse in the ``metrics`` op.
    """
    metrics = getattr(service, "metrics", None)
    while True:
        line = stdin.readline(max_line_bytes + 1)
        if not line:
            break  # EOF
        if len(line) > max_line_bytes and not line.endswith("\n"):
            # Oversized: throw away the rest of the line in bounded
            # chunks, answer with an error, keep serving.
            while True:
                chunk = stdin.readline(max_line_bytes)
                if not chunk or chunk.endswith("\n"):
                    break
            if metrics is not None:
                metrics.counter("serve.input.oversized").inc()
            response = {
                "ok": False,
                "error": (
                    f"request line exceeds {max_line_bytes} bytes"
                ),
            }
        else:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as error:
                if metrics is not None:
                    metrics.counter("serve.input.malformed").inc()
                response = {"ok": False, "error": f"bad JSON: {error}"}
            else:
                if not isinstance(request, dict):
                    if metrics is not None:
                        metrics.counter("serve.input.malformed").inc()
                    response = {
                        "ok": False, "error": "request must be an object"
                    }
                else:
                    response = service.handle(request)
        stdout.write(json.dumps(response, sort_keys=True) + "\n")
        stdout.flush()
        if response.get("shutdown"):
            break
    return 0


def run_batch(
    service,
    files: Sequence[str],
    entries: Sequence[str],
    passes: int = 2,
    stdout=None,
) -> dict:
    """Analyze every file ``passes`` times through the service.

    The per-file responses of each pass are written as JSON lines; the
    returned summary counts cache outcomes per pass — the second pass
    over unchanged files should be all hits."""
    summary: dict = {"passes": [], "files": list(files)}
    for pass_index in range(passes):
        counts = {HIT: 0, INCREMENTAL: 0, MISS: 0, "error": 0, "degraded": 0}
        for path in files:
            response = service.handle(
                {"op": "analyze", "file": path, "entries": list(entries)}
            )
            if stdout is not None:
                stdout.write(json.dumps(response, sort_keys=True) + "\n")
            if not response.get("ok"):
                counts["error"] += 1
                continue
            counts[response["cache"]["outcome"]] += 1
            if response["status"] != "exact":
                counts["degraded"] += 1
        summary["passes"].append(counts)
    # A Supervisor fronts workers and has no store of its own; its
    # stats() block stands in.
    summary["store"] = (
        service.store.stats()
        if hasattr(service, "store")
        else service.stats()
    )
    return summary


__all__ = [
    "HIT",
    "INCREMENTAL",
    "MAX_REQUEST_LINE",
    "MEMO_ENTRIES",
    "MISS",
    "AnalysisService",
    "ServiceConfig",
    "run_batch",
    "serve_loop",
]
