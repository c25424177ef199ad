"""Content-addressed fingerprints (repro.serve.fingerprint).

The load-bearing properties: fingerprints are stable across processes
(independent of PYTHONHASHSEED, dict order, object identity), invariant
under α-renaming of clause variables, and sensitive to every semantic
change (clause body, clause order, added clauses, config knobs).
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis.driver import parse_entry_spec
from repro.prolog.program import Program
from repro.serve import fingerprint
from repro.serve.fingerprint import (
    clause_fingerprint,
    config_fingerprint,
    entry_fingerprint,
    predicate_fingerprint,
    predicate_fingerprints,
    program_fingerprint,
    request_fingerprint,
)
from repro.serve.service import AnalysisService, ServiceConfig

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""


def _clause(text):
    program = Program.from_text(text)
    [predicate] = program.predicates.values()
    [clause] = predicate.clauses
    return clause


# ----------------------------------------------------------------------
# α-equivalence and sensitivity.


def test_alpha_renaming_is_invisible():
    left = _clause("p(X, Y, [X|Z]) :- q(Y, Z), r(X).")
    right = _clause("p(A, B, [A|C]) :- q(B, C), r(A).")
    assert clause_fingerprint(left) == clause_fingerprint(right)


def test_distinct_variable_structure_is_visible():
    # Same shape, but the repeated variable is a different one.
    left = _clause("p(X, Y) :- q(X).")
    right = _clause("p(X, Y) :- q(Y).")
    assert clause_fingerprint(left) != clause_fingerprint(right)


def test_atom_versus_variable_is_visible():
    assert clause_fingerprint(_clause("p(x).")) != clause_fingerprint(
        _clause("p(X).")
    )


def test_clause_body_change_is_visible():
    left = _clause("p(X) :- q(X).")
    right = _clause("p(X) :- r(X).")
    assert clause_fingerprint(left) != clause_fingerprint(right)


def test_clause_order_matters_for_predicates():
    forward = Program.from_text("p(a).\np(b).\n")
    backward = Program.from_text("p(b).\np(a).\n")
    fps_f = predicate_fingerprints(forward)
    fps_b = predicate_fingerprints(backward)
    assert fps_f[("p", 1)] != fps_b[("p", 1)]


def test_added_clause_changes_only_its_predicate():
    base = predicate_fingerprints(Program.from_text(NREV))
    edited = predicate_fingerprints(
        Program.from_text(NREV + "\nnrev([x], [x]).\n")
    )
    assert base[("nrev", 2)] != edited[("nrev", 2)]
    assert base[("append", 3)] == edited[("append", 3)]


def test_program_fingerprint_covers_directives():
    with_directive = Program.from_text(":- dynamic(p/1).\np(a).\n")
    without = Program.from_text("p(a).\n")
    assert program_fingerprint(with_directive) != program_fingerprint(without)


def test_config_fingerprint_distinguishes_knobs():
    base = dict(
        depth=4, list_aware=True, subsumption=False,
        on_undefined="error", environment_trimming=True,
    )
    fp = config_fingerprint(**base)
    for key, value in (
        ("depth", 5),
        ("list_aware", False),
        ("subsumption", True),
        ("on_undefined", "top"),
        ("environment_trimming", False),
    ):
        assert fp != config_fingerprint(**{**base, key: value}), key


def test_a_disk_store_answers_only_its_own_engine_version(tmp_path, monkeypatch):
    request = {"op": "analyze", "text": NREV, "entries": ["nrev(glist, var)"]}
    version = fingerprint.ENGINE_VERSION

    def outcome() -> str:
        # A fresh service over the same store directory, as a new
        # process would start.
        service = AnalysisService(ServiceConfig(store_dir=str(tmp_path)))
        return service.handle(dict(request))["cache"]["outcome"]

    assert outcome() == "miss"
    assert outcome() == "hit"
    monkeypatch.setattr(fingerprint, "ENGINE_VERSION", version + 1)
    assert outcome() == "miss"
    monkeypatch.setattr(fingerprint, "ENGINE_VERSION", version)
    assert outcome() == "hit"


def test_entry_fingerprint_covers_pattern():
    assert entry_fingerprint(parse_entry_spec("nrev(glist, var)")) != \
        entry_fingerprint(parse_entry_spec("nrev(any, var)"))


def test_request_fingerprint_ignores_scc_order():
    assert request_fingerprint("c", ["e"], ["s1", "s2"]) == \
        request_fingerprint("c", ["e"], ["s2", "s1"])
    assert request_fingerprint("c", ["e"], ["s1"]) != \
        request_fingerprint("c", ["e"], ["s1", "s2"])


# ----------------------------------------------------------------------
# Process independence: the satellite check.  The same program must
# fingerprint identically in two subprocesses with different
# PYTHONHASHSEED values — nothing process-specific may leak in.

_SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.prolog.program import Program
    from repro.serve.fingerprint import (
        predicate_fingerprints, program_fingerprint,
    )
    from repro.prolog.terms import format_indicator
    program = Program.from_text(sys.stdin.read())
    fps = {
        format_indicator(ind): fp
        for ind, fp in predicate_fingerprints(program).items()
    }
    print(json.dumps({
        "program": program_fingerprint(program),
        "predicates": fps,
    }, sort_keys=True))
    """
)


def _fingerprints_with_hashseed(seed: str) -> dict:
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = seed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    environment["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        environment.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        input=NREV, capture_output=True, text=True,
        env=environment, check=True,
    )
    return json.loads(completed.stdout)


def test_fingerprints_stable_across_hash_seeds():
    first = _fingerprints_with_hashseed("0")
    second = _fingerprints_with_hashseed("12345")
    assert first == second
    # and the in-process value agrees with both
    local = {
        "program": program_fingerprint(Program.from_text(NREV)),
        "predicates": {
            f"{ind[0]}/{ind[1]}": fp
            for ind, fp in predicate_fingerprints(
                Program.from_text(NREV)
            ).items()
        },
    }
    assert local == first


def test_undefined_predicate_has_stable_fingerprint():
    assert predicate_fingerprint([]) == predicate_fingerprint([])
    assert predicate_fingerprint([]) != predicate_fingerprint(
        [_clause("p(a).")]
    )
