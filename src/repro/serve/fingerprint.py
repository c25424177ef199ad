"""Content-addressed fingerprints of programs, predicates and requests.

Everything the analysis service caches is keyed by a SHA-256 digest of a
*canonical serialization* — never by Python hashes (which vary with
``PYTHONHASHSEED``) and never by object identity.  The canonical form is
chosen so that fingerprints are stable across processes and invariant
under the edits that cannot change analysis results:

* variables are numbered in first-occurrence order (α-equivalent clauses
  fingerprint identically, whatever the variables were called), except
  the anonymous ``_``, which compiles to no register and so renders as
  a token of its own;
* comments, whitespace and clause positions are invisible (they are gone
  by parse time and excluded from the serialization);
* atom/functor names are length-prefixed, so no crafted name can collide
  with the serializer's own punctuation.

Granularities, coarse to fine:

* :func:`clause_fingerprint` — one clause, α-invariant;
* :func:`predicate_fingerprint` — a predicate's clauses *in order*
  (clause order is visible: it can matter to cut-carrying code);
* :func:`program_fingerprint` — every predicate plus the directives;
* :func:`config_fingerprint` — the engine version and the analysis
  parameters that change results (depth, list-awareness, subsumption,
  undefined-predicate policy, environment trimming);
* :func:`entry_fingerprint` — one entry calling pattern;
* :func:`request_fingerprint` — a whole analyze request: config +
  entries + the fingerprints of the SCCs the entries can reach (see
  :mod:`repro.serve.callgraph` for the Merkle construction).  Editing
  statically unreachable code therefore does not miss the cache.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..prolog.program import Clause, Program
from ..prolog.terms import (
    Atom,
    Float,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
)

#: Fingerprint of a predicate that has no clauses (an undefined callee
#: under the ``top``/``fail`` policies).  When code for it appears later,
#: its fingerprint changes, dirtying every caller — exactly right.
UNDEFINED_PREDICATE = "undefined"

#: Version of the analysis engine whose answers a store holds.  Every
#: stored result is keyed under it through :func:`config_fingerprint`,
#: so a ``DiskStore`` written by an older engine answers a newer one
#: with a cold miss, never with the older answer.  Bump it whenever an
#: engine change can move a result, whether or not the result goldens
#: under ``tests/golden/`` moved (2: abstract unification with ``any``
#: or ``nv`` widens the other side's ``var`` leaves).
ENGINE_VERSION = 2


def _hash(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Canonical term serialization.


def canonical_term(term: Term, var_ids: Optional[Dict[int, int]] = None) -> str:
    """A canonical, α-invariant, injective rendering of ``term``.

    ``var_ids`` carries the variable numbering across the terms of one
    clause, so aliasing between head and body is part of the form.
    Names are length-prefixed (``4:name``) to keep the encoding
    injective whatever characters they contain.
    """
    if var_ids is None:
        var_ids = {}
    out: List[str] = []
    _serialize(term, var_ids, out)
    return "".join(out)


def _serialize(term: Term, var_ids: Dict[int, int], out: List[str]) -> None:
    if isinstance(term, Var):
        if term.name == "_":
            out.append("_;")
            return
        ident = var_ids.get(id(term))
        if ident is None:
            ident = len(var_ids)
            var_ids[id(term)] = ident
        out.append(f"v{ident};")
        return
    if isinstance(term, Atom):
        out.append(f"a{len(term.name)}:{term.name};")
        return
    if isinstance(term, Int):
        out.append(f"i{term.value};")
        return
    if isinstance(term, Float):
        out.append(f"f{term.value!r};")
        return
    assert isinstance(term, Struct)
    out.append(f"s{len(term.name)}:{term.name}/{term.arity}(")
    for argument in term.args:
        _serialize(argument, var_ids, out)
    out.append(")")


def clause_fingerprint(clause: Clause) -> str:
    """SHA-256 of the clause's canonical form (α-invariant, position-free)."""
    var_ids: Dict[int, int] = {}
    parts = [canonical_term(clause.head, var_ids)]
    for goal in clause.body:
        parts.append(canonical_term(goal, var_ids))
    return _hash(["clause", str(len(parts))] + parts)


def predicate_fingerprint(clauses: Sequence[Clause]) -> str:
    """SHA-256 over a predicate's clause fingerprints, in source order."""
    if not clauses:
        return UNDEFINED_PREDICATE
    return _hash(
        ["predicate"] + [clause_fingerprint(clause) for clause in clauses]
    )


def predicate_fingerprints(program: Program) -> Dict[Indicator, str]:
    """Fingerprint every predicate of ``program``."""
    return {
        indicator: predicate_fingerprint(predicate.clauses)
        for indicator, predicate in program.predicates.items()
    }


def program_fingerprint(program: Program) -> str:
    """SHA-256 of the whole program: predicates (sorted) plus directives."""
    parts = ["program"]
    for indicator in sorted(program.predicates):
        parts.append(f"{indicator[0]}/{indicator[1]}")
        parts.append(predicate_fingerprint(program.predicates[indicator].clauses))
    for directive in program.directives:
        parts.append(canonical_term(directive, {}))
    return _hash(parts)


# ----------------------------------------------------------------------
# Analysis configuration and entry specs.


def config_fingerprint(
    depth: int,
    list_aware: bool = True,
    subsumption: bool = False,
    on_undefined: str = "error",
    environment_trimming: bool = True,
) -> str:
    """Digest of the engine version and of every analyzer knob that can
    change analysis results."""
    return _hash(
        [
            "config",
            f"engine={ENGINE_VERSION}",
            f"depth={depth}",
            f"list_aware={list_aware}",
            f"subsumption={subsumption}",
            f"on_undefined={on_undefined}",
            f"environment_trimming={environment_trimming}",
        ]
    )


def entry_fingerprint(spec) -> str:
    """Digest of one :class:`~repro.analysis.driver.EntrySpec`.

    ``str(spec)`` renders the canonicalized pattern (instance ids in
    first-occurrence order), so equivalent specs — however they were
    written — fingerprint identically.
    """
    return _hash(["entry", str(spec)])


def request_fingerprint(
    config: str,
    entries: Sequence[str],
    reachable_sccs: Sequence[str],
) -> str:
    """Digest of a whole analyze request.

    ``reachable_sccs`` are the Merkle fingerprints of the SCCs statically
    reachable from the entry predicates; sorting makes the key
    independent of traversal order.
    """
    return _hash(
        ["request", config]
        + list(entries)
        + sorted(reachable_sccs)
    )


def text_fingerprint(text: str) -> str:
    """Digest of raw program text (used only as a parse-cache key)."""
    return _hash(["text", text])


__all__ = [
    "ENGINE_VERSION",
    "UNDEFINED_PREDICATE",
    "canonical_term",
    "clause_fingerprint",
    "config_fingerprint",
    "entry_fingerprint",
    "predicate_fingerprint",
    "predicate_fingerprints",
    "program_fingerprint",
    "request_fingerprint",
    "text_fingerprint",
]
