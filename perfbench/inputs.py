"""Seeded inputs and the independent correctness reference.

Every program version a workload can send is generated here — the 11
Table 1 programs plus seeded structural edits of each —
and checked before any timing: the compiled analyzer and the
meta-interpreting baseline (:class:`repro.baselines.meta.MetaAnalyzer`)
must produce equal extension tables, canonical entry for entry.  The
from-scratch ``stable_dict`` of each version is then the answer every
timed request for that version must reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from common import canonical_json, table_map


@dataclass(frozen=True)
class Version:
    """One program text a workload may send."""

    key: str  # "zebra" for the original, "zebra~2" for its 2nd edit
    program: str  # the Table 1 benchmark it derives from
    text: str
    entry: str
    edit: Optional[str] = None  # the mutation operator applied, if any


@dataclass
class Inputs:
    originals: List[Version]
    edits: List[Version]
    #: version key -> canonical JSON of its from-scratch stable_dict.
    expected: Dict[str, str] = field(default_factory=dict)
    #: version keys whose tables disagreed with the baseline.
    disagreements: List[str] = field(default_factory=list)

    def request(self, version: Version, op: str = "analyze") -> dict:
        return {"op": op, "text": version.text, "entries": [version.entry]}

    def edit_slices(self) -> List[List[Version]]:
        """The edits split so that each slice holds at most one edit of
        each program: ``zebra~1`` goes to slice 0, ``zebra~2`` to 1."""
        slices: Dict[str, List[Version]] = {}
        for version in self.edits:
            slices.setdefault(version.key.rpartition("~")[2], []).append(version)
        return [slices[number] for number in sorted(slices, key=int)]


def _check(version: Version, inputs: Inputs) -> bool:
    """Analyze ``version`` both ways; record its expected answer.

    Returns False when the compiled analyzer rejects the text (the edit
    is then not used); a baseline disagreement is recorded, not
    skipped — it is exactly what this check exists to catch."""
    from repro.analysis.driver import Analyzer
    from repro.baselines.meta import MetaAnalyzer
    from repro.errors import ReproError

    try:
        ours = Analyzer(version.text).analyze([version.entry])
    except ReproError:
        return False
    try:
        meta = MetaAnalyzer(version.text).analyze([version.entry])
        agrees = table_map(meta.table) == table_map(ours.table)
    except ReproError:
        agrees = False
    if not agrees:
        inputs.disagreements.append(version.key)
    inputs.expected[version.key] = canonical_json(ours.stable_dict())
    return True


def build_inputs(edits_per_program: int) -> Inputs:
    """Generate and reference-check every version.

    The edit catalogue is seeded per program, not by the run seed: the
    run seed orders the requests, so runs with different seeds time the
    same program versions.  With a few edits per program, letting the
    run seed pick them moved the bucket medians by a third between
    seeds."""
    from repro.bench.programs import BENCHMARKS
    from repro.fuzz.mutate import STRUCTURAL_OPS, Mutator

    originals = [
        Version(b.name, b.name, b.source, b.entry) for b in BENCHMARKS
    ]
    inputs = Inputs(originals=originals, edits=[])
    for version in originals:
        _check(version, inputs)
    for original in originals:
        mutator = Mutator(
            random.Random(f"edits:{original.program}"), ops=STRUCTURAL_OPS
        )
        seen = {original.text}
        attempts = 0
        made = 0
        while made < edits_per_program and attempts < 20 * edits_per_program:
            attempts += 1
            text, applied = mutator.mutate_text(original.text, 1)
            if not applied or text in seen:
                continue
            seen.add(text)
            version = Version(
                f"{original.program}~{made + 1}", original.program, text,
                original.entry, applied[0],
            )
            if _check(version, inputs):
                inputs.edits.append(version)
                made += 1
    return inputs
