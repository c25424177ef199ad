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
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.analysis.driver import Analyzer
from repro.bench.programs import BENCHMARKS
from repro.serve.service import AnalysisService

GOLDEN_DIR = Path(__file__).with_name("golden")
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


def regenerate() -> None:
    """Rewrite every golden file from the plain driver."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text, entries in CASES:
        stable = Analyzer(text).analyze(entries).stable_dict()
        (GOLDEN_DIR / f"{name}.json").write_text(
            canonical(stable), encoding="utf-8"
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
