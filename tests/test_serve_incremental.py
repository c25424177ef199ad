"""Property test: incremental re-analysis ≡ from-scratch analysis.

A corpus program is subjected to random single-clause edits (duplicate,
delete, swap — drawn from the shared :mod:`repro.fuzz.mutate` engine,
the one source of seeded randomness for every random-edit surface in
the repo).  After every edit the service — seeding from whatever its
store accumulated over the previous edits — must produce per-predicate
lattice facts equal to a from-scratch ``analyze()`` of the edited text
(``stable_dict`` compares exactly the facts: modes, call/success
types, aliasing, can-succeed, statuses).

The budget variant: when the per-request budget trips mid-edit, the
response is degraded, *nothing* enters the store, and the next
healthy request still equals the from-scratch result.

Chained structural edits check the trusted seeds: every summary a
request stores carries its read edges, so the next edit's request
answers clean components from the table without running them.  The
same edits check compile reuse: code linked from the units of earlier
requests lists exactly as a from-scratch compile.
"""

import random

import pytest

from repro.analysis.driver import Analyzer
from repro.bench.programs import BENCHMARKS, BY_NAME
from repro.fuzz.grammar import generate_program
from repro.fuzz.mutate import STRUCTURAL_OPS, Mutator, render_program
from repro.prolog.program import Program
from repro.serve import AnalysisService, ServiceConfig
from repro.wam.compile import compile_program
from repro.wam.listing import disassemble

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
main :- nrev([1,2,3], R).
"""

CORPUS = [
    ("nrev", NREV, "nrev(glist, var)"),
    ("nreverse", BY_NAME["nreverse"].source, BY_NAME["nreverse"].entry),
    ("qsort", BY_NAME["qsort"].source, BY_NAME["qsort"].entry),
    ("tak", BY_NAME["tak"].source, BY_NAME["tak"].entry),
    ("log10", BY_NAME["log10"].source, BY_NAME["log10"].entry),
    ("serialise", BY_NAME["serialise"].source, BY_NAME["serialise"].entry),
]

#: Single-clause edits: the same operator subset the original ad-hoc
#: editor applied, now served by the shared mutation engine.
EDIT_OPS = ("duplicate_clause", "delete_clause", "swap_clauses")


def _render(program: Program) -> str:
    return render_program(program)


def _random_edit(text: str, rng: random.Random) -> str:
    """One random single-clause edit, re-rendered to text."""
    edited, applied = Mutator(rng, ops=EDIT_OPS).mutate_text(text)
    assert applied, "corpus programs always offer an edit site"
    return edited


def _scratch(text, entry, subsumption=False):
    return Analyzer(
        Program.from_text(text), subsumption=subsumption
    ).analyze([entry]).stable_dict()


def test_render_round_trips():
    for name, source, entry in CORPUS:
        rendered = _render(Program.from_text(source))
        assert _scratch(rendered, entry) == _scratch(source, entry), name


@pytest.mark.parametrize("name,source,entry", CORPUS)
def test_incremental_equals_scratch_under_random_edits(name, source, entry):
    rng = random.Random(f"serve-{name}")
    service = AnalysisService(ServiceConfig())
    text = _render(Program.from_text(source))
    edits = 4
    for step in range(edits + 1):
        response = service.handle(
            {"op": "analyze", "text": text, "entries": [entry]}
        )
        assert response["ok"], response.get("error")
        assert response["status"] == "exact"
        assert response["result"] == _scratch(text, entry), (
            f"{name} step {step}: served facts differ from from-scratch"
        )
        if step < edits:
            text = _random_edit(text, rng)
    # across the edit sequence the cache did real work at least once
    stats = service.store.stats()
    assert stats["hits"] + stats["misses"] > 0


def test_same_text_after_edits_is_a_full_hit():
    service = AnalysisService(ServiceConfig())
    rng = random.Random("back-and-forth")
    entry = "nrev(glist, var)"
    base = _render(Program.from_text(NREV))
    service.handle({"op": "analyze", "text": base, "entries": [entry]})
    edited = _random_edit(base, rng)
    service.handle({"op": "analyze", "text": edited, "entries": [entry]})
    # reverting to the original text: content addressing makes it a hit
    back = service.handle({"op": "analyze", "text": base, "entries": [entry]})
    assert back["cache"]["outcome"] == "hit"
    assert back["result"] == _scratch(base, entry)


@pytest.mark.parametrize("max_iterations", [1, 2, 3])
def test_tripped_budget_never_contaminates_the_store(max_iterations):
    rng = random.Random(f"budget-{max_iterations}")
    service = AnalysisService(ServiceConfig())
    entry = "nrev(glist, var)"
    text = _render(Program.from_text(NREV))
    service.handle({"op": "analyze", "text": text, "entries": [entry]})
    edited = _random_edit(text, rng)

    def result_keys():
        # Results and SCC summaries; the checkpoint namespace is
        # excluded — a degraded run deliberately persists its
        # pre-widening snapshot there (see docs/robustness.md).
        return {
            key for key in service.store._data
            if not key.startswith("checkpoint:")
        }

    before = result_keys()
    degraded = service.handle({
        "op": "analyze", "text": edited, "entries": [entry],
        "budget": {"max_iterations": max_iterations},
    })
    assert degraded["ok"]
    if degraded["status"] == "exact":
        # seeding made even this tiny budget sufficient — fine, but then
        # the result must be the true one
        assert degraded["result"] == _scratch(edited, entry)
    else:
        # degraded: no result/summary entry was stored by this request
        assert result_keys() == before
        assert service.store.stats()["rejected_degraded"] == 0
    # a healthy request afterwards is exact and equal to from-scratch,
    # never seeded with degraded garbage
    healthy = service.handle(
        {"op": "analyze", "text": edited, "entries": [entry]}
    )
    assert healthy["status"] == "exact"
    assert healthy["result"] == _scratch(edited, entry)


def _chain_cases():
    cases = [(bench.name, bench.source, [bench.entry]) for bench in BENCHMARKS]
    for seed in range(40):
        program = generate_program(seed)
        cases.append((f"fuzz_{seed}", program.source, list(program.entries)))
    return cases


def _chain(name, text, edits=5):
    """The text and ``edits`` seeded structural edits, each of the one
    before it."""
    mutator = Mutator(random.Random(f"chain:{name}"), ops=STRUCTURAL_OPS)
    texts = [text]
    for _ in range(edits):
        texts.append(mutator.mutate_text(texts[-1])[0])
    return texts


@pytest.mark.parametrize("subsumption", [False, True])
def test_chained_structural_edits_equal_scratch(subsumption):
    incremental = trusted = 0
    for name, source, entries in _chain_cases():
        service = AnalysisService(ServiceConfig(subsumption=subsumption))
        for step, text in enumerate(_chain(name, source)):
            for entry in entries:
                response = service.handle(
                    {"op": "analyze", "text": text, "entries": [entry]}
                )
                assert response["ok"], response.get("error")
                assert response["result"] == _scratch(
                    text, entry, subsumption
                ), f"{name} edit {step} from {entry}"
                if response["cache"]["outcome"] == "incremental":
                    incremental += 1
                    trusted += response["cache"]["schedule"]["seeds_trusted"]
    assert incremental and trusted


APPEND_TWICE = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
a(X) :- app([1], [2], X).
b(X, Y, Z) :- app(X, Y, Z).
"""


def test_an_adopted_component_keeps_its_unreached_patterns():
    # Guards: a request that only adopts a component's summaries must not
    # store them back, or the record loses the calling patterns this
    # request did not reach and a later request runs them again.
    service = AnalysisService(ServiceConfig())
    service.handle({
        "op": "analyze", "text": APPEND_TWICE,
        "entries": ["a(var)", "b(var, var, var)"],
    })
    (app_key,) = [
        key for key in list(service.store._data)
        if key.startswith("scc:")
        and service.store.get(key)["entries"][0]["predicate"] == "app/3"
    ]
    record = service.store.get(app_key)
    edited = APPEND_TWICE + "a(z).\n"
    adopted = service.handle(
        {"op": "analyze", "text": edited, "entries": ["a(var)"]}
    )
    assert adopted["cache"]["schedule"]["seeds_dropped"] > 0
    assert service.store.get(app_key) == record
    edited += "b(z, z, z).\n"
    later = service.handle(
        {"op": "analyze", "text": edited, "entries": ["b(var, var, var)"]}
    )
    assert later["result"] == _scratch(edited, "b(var, var, var)")
    assert later["cache"]["schedule"]["seeds_trusted"] == len(
        record["entries"]
    )


#: Two texts whose auxiliary predicates share names but not clauses.
AUXILIARY_COLLISIONS = [
    (
        "p(X) :- (X = 1 ; X = 2).\n",
        "p(X) :- (X = a ; X = b).\n",
        "p(var)",
    ),
    (
        "m :- p(X), q(Y).\np(X) :- (X = 1 ; X = 2).\n"
        "q(X) :- (X = a ; X = b).\n",
        "m :- p(X), q(Y).\nq(X) :- (X = a ; X = b).\n"
        "p(X) :- (X = 1 ; X = 2).\n",
        "m",
    ),
]


@pytest.mark.parametrize(
    "first,second,entry", AUXILIARY_COLLISIONS, ids=["contents", "swapped"]
)
def test_auxiliary_predicates_are_fingerprinted(first, second, entry):
    service = AnalysisService(ServiceConfig())
    service.handle({"op": "analyze", "text": first, "entries": [entry]})
    response = service.handle(
        {"op": "analyze", "text": second, "entries": [entry]}
    )
    assert response["cache"]["outcome"] != "hit"
    assert response["result"] == _scratch(second, entry)


def test_code_linked_from_reused_units_lists_as_from_scratch():
    service = AnalysisService(ServiceConfig())
    for bench in BENCHMARKS:
        for text in _chain(bench.name, bench.source):
            linked = service._prepare(text).compiled.code
            scratch = compile_program(Program.from_text(text)).code
            assert disassemble(linked) == disassemble(scratch), bench.name
    reused = service.metrics.snapshot()["serve.compile.units{source=reused}"]
    assert reused["value"] > 0
