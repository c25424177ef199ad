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

``tests/golden/metrics/`` holds, per case, the metrics snapshot of the
same plain driver run: counters and gauges exactly, histograms reduced
to their ``count``.  The driver and the analysis-core keys of a cold
served request must both reproduce it, so the instruction, predicate
and table accounting stays identical whichever loop or layer produces
it.  A deliberate accounting change regenerates them with::

    PYTHONPATH=src python -c "import tests.test_golden as g; g.regenerate_metrics()"
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.analysis.driver import Analyzer
from repro.bench.programs import BENCHMARKS
from repro.obs import MetricsRegistry
from repro.serve.service import AnalysisService

GOLDEN_DIR = Path(__file__).with_name("golden")
METRICS_DIR = GOLDEN_DIR / "metrics"
#: Name prefixes of the metrics the analysis core reports; a served
#: registry also holds the service's own ``serve.*`` keys.
CORE_PREFIXES = ("wam.", "analysis.", "table.")
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


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


def regenerate() -> None:
    """Rewrite every golden file from the plain driver."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text, entries in CASES:
        stable = Analyzer(text).analyze(entries).stable_dict()
        (GOLDEN_DIR / f"{name}.json").write_text(
            canonical(stable), encoding="utf-8"
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
