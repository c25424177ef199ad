"""Golden analysis results: the 11 Table 1 programs and the two examples.

Each file under ``tests/golden/`` is the canonical ``stable_dict`` JSON
(:func:`canonical`) of one program's analysis, recorded from an earlier
engine.  The plain driver, a cold served request and a repeat of that
request (a full-result cache hit) must each reproduce it byte for byte,
so a change to the engine or the service that moves any analysis fact
shows up here, not only as a disagreement between two parts of the
system that share their table and pattern code.

A deliberate precision change regenerates the files and is reviewed in
the diff; from the repository root::

    PYTHONPATH=src python -c "import tests.test_golden as g; g.regenerate()"

Regenerating the result goldens also bumps
``repro.serve.fingerprint.ENGINE_VERSION``, so a disk store that
outlives this engine answers the new one with a cold miss, never with
an answer the goldens no longer hold.

``tests/golden/metrics/`` holds, per case, the metrics snapshot of the
same plain driver run: counters and gauges exactly, histograms reduced
to their ``count``.  The driver and the analysis-core keys of a cold
served request must both reproduce it, so the instruction, predicate
and table accounting stays identical whichever loop or layer produces
it.  A deliberate accounting change regenerates them with::

    PYTHONPATH=src python -c "import tests.test_golden as g; g.regenerate_metrics()"

``tests/golden/fuzz_slice.json`` pins the same plain driver on programs
no engine change was tuned on: ``repro.fuzz.grammar.generate_program``
for seeds 0-39, each with its canonical result and the search counters
in :data:`FUZZ_SLICE_METRICS`.  :func:`regenerate` rewrites it with the
result goldens.

``tests/golden/subsumption_slice.json`` pins the same cases and seeds
analyzed with ``subsumption=True``, the mode where an entry's answer
may come from a more general explored entry, so the order in which the
search explores entries can move the result.  It holds one canonical
result per case; :func:`regenerate` rewrites it too.

``tests/golden/tokens.json`` pins the tokenizer on the golden programs
and the fuzz-slice programs: per input, the token count and the sha256
of the canonical stream (:func:`token_stream`), positions included.  A
tokenizer rewrite must leave it unchanged; a deliberate change to the
token stream rewrites it with::

    PYTHONPATH=src python -c "import tests.test_golden as g; g.regenerate_tokens()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.analysis.driver import Analyzer
from repro.bench.programs import BENCHMARKS
from repro.fuzz.grammar import generate_program
from repro.obs import MetricsRegistry
from repro.prolog.tokenizer import tokenize
from repro.serve.service import AnalysisService

GOLDEN_DIR = Path(__file__).with_name("golden")
METRICS_DIR = GOLDEN_DIR / "metrics"
#: Name prefixes of the metrics the analysis core reports; a served
#: registry also holds the service's own ``serve.*`` keys.
CORE_PREFIXES = ("wam.", "analysis.", "table.")
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
FUZZ_SLICE = GOLDEN_DIR / "fuzz_slice.json"
FUZZ_SLICE_SEEDS = range(40)
SUBSUMPTION_SLICE = GOLDEN_DIR / "subsumption_slice.json"
TOKENS = GOLDEN_DIR / "tokens.json"
#: The counters a fuzz-slice golden keeps per program: together they pin
#: how the search went, not only where it ended.
FUZZ_SLICE_METRICS = (
    "analysis.iterations",
    "wam.instructions",
    "table.lookups",
    "table.updates",
    "wam.trail.peak",
)


def _cases() -> List[Tuple[str, str, List[str]]]:
    """(golden name, program text, entry specs) for every golden."""
    cases = [(bench.name, bench.source, [bench.entry]) for bench in BENCHMARKS]
    cases.append((
        "example_nrev",
        (EXAMPLES_DIR / "nrev.pl").read_text(encoding="utf-8"),
        ["nrev(glist, var)"],
    ))
    cases.append((
        "example_lint_demo",
        (EXAMPLES_DIR / "lint_demo.pl").read_text(encoding="utf-8"),
        ["main", "wrapper(g)"],
    ))
    return cases


CASES = _cases()


def canonical(stable: dict) -> str:
    """The byte form a golden file holds."""
    return json.dumps(stable, sort_keys=True, indent=1) + "\n"


def core_metrics(snapshot: dict) -> dict:
    """The analysis-core part of a snapshot as a metric golden holds it:
    histograms (wall times) keep only their ``count``."""
    return {
        key: (
            {"type": "histogram", "count": data["count"]}
            if data["type"] == "histogram" else data
        )
        for key, data in snapshot.items()
        if key.startswith(CORE_PREFIXES)
    }


def driver_metrics(text: str, entries: List[str]) -> dict:
    registry = MetricsRegistry()
    Analyzer(text, metrics=registry).analyze(entries)
    return core_metrics(registry.snapshot())


def fuzz_slice_case(seed: int) -> dict:
    """One generated program's entry specs, result and search counters."""
    program = generate_program(seed)
    registry = MetricsRegistry()
    result = Analyzer(program.source, metrics=registry).analyze(program.entries)
    snapshot = registry.snapshot()
    return {
        "entries": program.entries,
        "metrics": {name: snapshot[name]["value"] for name in FUZZ_SLICE_METRICS},
        "result": result.stable_dict(),
    }


def subsumption_cases() -> List[Tuple[str, str, List[str]]]:
    """(key, program text, entry specs) for the subsumption slice: every
    golden case, then the fuzz-slice programs as ``fuzz_<seed>``."""
    cases = list(CASES)
    for seed in FUZZ_SLICE_SEEDS:
        program = generate_program(seed)
        cases.append((f"fuzz_{seed}", program.source, program.entries))
    return cases


def subsumption_result(text: str, entries: List[str]) -> dict:
    return Analyzer(text, subsumption=True).analyze(entries).stable_dict()


def token_cases() -> List[Tuple[str, str]]:
    """(key, text) for the token golden: every golden program, then the
    fuzz-slice programs as ``fuzz_<seed>``."""
    cases = [(name, text) for name, text, _ in CASES]
    for seed in FUZZ_SLICE_SEEDS:
        cases.append((f"fuzz_{seed}", generate_program(seed).source))
    return cases


def token_stream(text: str) -> dict:
    """Token count and sha256 of the canonical token stream of ``text``:
    kind, value, value type, line, column and functor flag per token."""
    tokens = tokenize(text)
    stream = json.dumps([
        [t.kind, t.value, type(t.value).__name__, t.line, t.column, t.functor]
        for t in tokens
    ])
    return {
        "count": len(tokens),
        "sha256": hashlib.sha256(stream.encode("utf-8")).hexdigest(),
    }


def regenerate() -> None:
    """Rewrite every result golden, the fuzz and subsumption slices
    included, from the plain driver."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text, entries in CASES:
        stable = Analyzer(text).analyze(entries).stable_dict()
        (GOLDEN_DIR / f"{name}.json").write_text(
            canonical(stable), encoding="utf-8"
        )
    FUZZ_SLICE.write_text(
        canonical({str(seed): fuzz_slice_case(seed) for seed in FUZZ_SLICE_SEEDS}),
        encoding="utf-8",
    )
    SUBSUMPTION_SLICE.write_text(
        canonical({
            key: subsumption_result(text, entries)
            for key, text, entries in subsumption_cases()
        }),
        encoding="utf-8",
    )


def regenerate_tokens() -> None:
    """Rewrite the token golden from the tokenizer."""
    TOKENS.write_text(
        canonical({key: token_stream(text) for key, text in token_cases()}),
        encoding="utf-8",
    )


def regenerate_metrics() -> None:
    """Rewrite every metric golden from the plain driver."""
    METRICS_DIR.mkdir(parents=True, exist_ok=True)
    for name, text, entries in CASES:
        (METRICS_DIR / f"{name}.json").write_text(
            canonical(driver_metrics(text, entries)), encoding="utf-8"
        )


@pytest.mark.parametrize(
    "name,text,entries", CASES, ids=[case[0] for case in CASES]
)
def test_golden_result(name, text, entries):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert canonical(Analyzer(text).analyze(entries).stable_dict()) == golden
    service = AnalysisService()
    request = {"op": "analyze", "text": text, "entries": entries}
    cold = service.handle(dict(request))
    assert cold["cache"]["outcome"] == "miss"
    assert canonical(cold["result"]) == golden
    repeat = service.handle(dict(request))
    assert repeat["cache"]["outcome"] == "hit"
    assert canonical(repeat["result"]) == golden


@pytest.mark.parametrize(
    "name,text,entries", CASES, ids=[case[0] for case in CASES]
)
def test_golden_metrics(name, text, entries):
    golden = json.loads(
        (METRICS_DIR / f"{name}.json").read_text(encoding="utf-8")
    )
    assert driver_metrics(text, entries) == golden
    service = AnalysisService()
    cold = service.handle({"op": "analyze", "text": text, "entries": entries})
    assert cold["cache"]["outcome"] == "miss"
    assert core_metrics(service.metrics.snapshot()) == golden


@pytest.fixture(scope="module")
def fuzz_slice_golden() -> dict:
    return json.loads(FUZZ_SLICE.read_text(encoding="utf-8"))


def test_fuzz_slice_covers_its_seeds(fuzz_slice_golden):
    assert sorted(map(int, fuzz_slice_golden)) == list(FUZZ_SLICE_SEEDS)


@pytest.mark.parametrize("seed", FUZZ_SLICE_SEEDS)
def test_fuzz_slice(seed, fuzz_slice_golden):
    assert canonical(fuzz_slice_case(seed)) == canonical(
        fuzz_slice_golden[str(seed)]
    )


SUBSUMPTION_CASES = subsumption_cases()


@pytest.fixture(scope="module")
def subsumption_golden() -> dict:
    return json.loads(SUBSUMPTION_SLICE.read_text(encoding="utf-8"))


def test_subsumption_slice_covers_its_cases(subsumption_golden):
    assert sorted(subsumption_golden) == sorted(
        key for key, _, _ in SUBSUMPTION_CASES
    )


@pytest.mark.parametrize(
    "key,text,entries", SUBSUMPTION_CASES,
    ids=[case[0] for case in SUBSUMPTION_CASES],
)
def test_subsumption_slice(key, text, entries, subsumption_golden):
    assert canonical(subsumption_result(text, entries)) == canonical(
        subsumption_golden[key]
    )


TOKEN_CASES = token_cases()


@pytest.fixture(scope="module")
def tokens_golden() -> dict:
    return json.loads(TOKENS.read_text(encoding="utf-8"))


def test_tokens_cover_their_cases(tokens_golden):
    assert sorted(tokens_golden) == sorted(key for key, _ in TOKEN_CASES)


@pytest.mark.parametrize(
    "key,text", TOKEN_CASES, ids=[case[0] for case in TOKEN_CASES]
)
def test_tokens(key, text, tokens_golden):
    assert token_stream(text) == tokens_golden[key]
