"""Seeded, size-budgeted random Prolog program generator.

Every generated program is **parseable, compilable, analyzable and
terminating by construction**:

* programs are built as ASTs and rendered through the writer — no
  string splicing, so syntax is correct by construction;
* predicates are *stratified*: non-recursive predicates only call
  predicates generated before them (plus builtins), and the only
  recursion emitted is structural recursion on the tail of a list
  argument — so every query whose list inputs are ground proper lists
  terminates on both engines;
* a *mode discipline* is enforced during generation.  Every predicate
  carries a signature of roles — ``("in", type)`` arguments the caller
  grounds, ``("out", type)`` arguments the predicate grounds on
  success, ``("enum", type)`` arguments that may be called open
  (member-style) — and clause bodies are generated against a
  bound-variable environment, so arithmetic never sees an unbound
  variable;
* the builtin subset is curated to what the abstract analysis, both
  baselines, the SLD solver and the WAM all implement with the same
  semantics, and atom/functor pools avoid the sort atoms the
  PrologAnalyzer baseline reserves (``g``, ``var``, ``intlist``, ...).

The generator reports *feature coverage* (templates, builtins, cut,
head-index shapes) so the campaign runner can show which parts of the
opcode/builtin space a run actually exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..prolog.terms import Atom, Int, Struct, Term, Var, cons, make_list
from ..prolog.writer import term_to_text
from .mutate import ATOM_POOL, CUT

#: Builtins every engine in the repo agrees on (concrete WAM, SLD
#: solver, abstract WAM, meta/Prolog baselines).  The generator emits
#: nothing outside this set.
CURATED_BUILTINS: Tuple[str, ...] = (
    "is", "=", "<", "=<", ">", ">=", "integer", "atom", "nonvar", "!",
)

#: Comparison operators usable as int guards.
_COMPARISONS = ("<", "=<", ">", ">=")
_ARITH_OPS = ("+", "-", "*")

Role = Tuple[str, str]  # ("in" | "out" | "enum", "int" | "term" | "list")

#: Helper predicates below ``main`` (the actual count is random ≤ this).
MAX_HELPERS = 5
#: Clauses per free-form rule predicate, and goals per rule body.
MAX_CLAUSES = 3
MAX_BODY_GOALS = 3
#: Shape of generated ground values.
MAX_TERM_DEPTH = 2
MAX_LIST_LENGTH = 5
MAX_INT = 9
#: Queries per program, the one on ``main`` included.
QUERIES_PER_PROGRAM = 3


@dataclass(frozen=True)
class GenConfig:
    """Size budget for one generated program."""

    #: hard cap on total clauses (the size budget).
    size_budget: int = 30


@dataclass(frozen=True)
class PredSig:
    """The mode/type contract of a generated predicate."""

    name: str
    roles: Tuple[Role, ...]
    kind: str  # template name, for coverage reporting

    @property
    def arity(self) -> int:
        return len(self.roles)


@dataclass
class GeneratedProgram:
    """One generated program plus everything the oracles need."""

    seed: int
    source: str
    #: concrete query texts, each terminating on ground inputs.
    goals: List[str]
    #: abstract entry-spec texts covering the goals, index-aligned.
    entries: List[str]
    #: feature counters (templates, builtins, cut sites, ...).
    features: Dict[str, int] = field(default_factory=dict)


def _clause_text(head: Term, body: Sequence[Term]) -> str:
    if not body:
        return term_to_text(head, quoted=True) + "."
    conj: Term = body[-1]
    for goal in reversed(list(body)[:-1]):
        conj = Struct(",", (goal, conj))
    return term_to_text(Struct(":-", (head, conj)), quoted=True) + "."


class ProgramGenerator:
    """Deterministic generator: same seed + config, same program."""

    def __init__(self, seed: int, config: Optional[GenConfig] = None) -> None:
        self.seed = seed
        self.rng = random.Random(f"repro.fuzz.grammar:{seed}")
        self.config = config or GenConfig()
        self._var_counter = 0
        self._clauses: List[str] = []
        self._pool: List[PredSig] = []
        self.features: Dict[str, int] = {}

    # -- feature accounting --------------------------------------------

    def _feat(self, name: str) -> None:
        self.features[name] = self.features.get(name, 0) + 1

    # -- fresh names and ground values ---------------------------------

    def _fresh_var(self, prefix: str = "V") -> Var:
        self._var_counter += 1
        return Var(f"{prefix}{self._var_counter}")

    def _ground_int(self) -> Int:
        return Int(self.rng.randint(0, MAX_INT))

    def _ground_list(self) -> Term:
        length = self.rng.randint(0, MAX_LIST_LENGTH)
        return make_list([self._ground_int() for _ in range(length)])

    def _ground_term(self, depth: Optional[int] = None) -> Term:
        if depth is None:
            depth = MAX_TERM_DEPTH
        choice = self.rng.randrange(6)
        if choice == 0:
            return self._ground_int()
        if choice <= 2 or depth <= 0:
            return Atom(self.rng.choice(ATOM_POOL))
        if choice == 3:
            length = self.rng.randint(0, 3)
            return make_list(
                [self._ground_term(depth - 1) for _ in range(length)]
            )
        name = self.rng.choice(("f", "g", "h"))
        args = tuple(
            self._ground_term(depth - 1)
            for _ in range(self.rng.randint(1, 2))
        )
        return Struct(name, args)

    def _ground_of(self, type_name: str) -> Term:
        if type_name == "int":
            return self._ground_int()
        if type_name == "list":
            return self._ground_list()
        return self._ground_term()

    # -- recursive templates -------------------------------------------

    def _emit(self, head: Term, body: Sequence[Term]) -> None:
        self._clauses.append(_clause_text(head, body))

    def _template_fold(self, name: str) -> PredSig:
        """``name(IntList, Acc0, Acc)`` — structural fold, optionally
        with a guarded (cut) clause pair."""
        op = self.rng.choice(_ARITH_OPS)
        use_element = self.rng.random() < 0.7
        head_var, tail, acc, acc2, out = (
            Var("H"), Var("T"), Var("A"), Var("A2"), Var("R"),
        )
        step = Struct(op, (acc, head_var if use_element else Int(1)))
        base = (Struct(name, (Atom("[]"), acc, acc)), ())
        guarded = self.rng.random() < 0.4
        recursive_clauses = []
        if guarded:
            guard = Struct(
                self.rng.choice(_COMPARISONS), (head_var, self._ground_int())
            )
            recursive_clauses.append((
                Struct(name, (cons(head_var, tail), acc, out)),
                (guard, CUT, Struct("is", (acc2, step)),
                 Struct(name, (tail, acc2, out))),
            ))
            recursive_clauses.append((
                Struct(name, (cons(Var("_"), tail), acc, out)),
                (Struct(name, (tail, acc, out)),),
            ))
            self._feat("template.fold.guarded")
            self._feat("builtin.!")
        else:
            recursive_clauses.append((
                Struct(name, (cons(head_var, tail), acc, out)),
                (Struct("is", (acc2, step)), Struct(name, (tail, acc2, out))),
            ))
            self._feat("template.fold")
        self._feat("builtin.is")
        clauses = recursive_clauses
        if self.rng.random() < 0.5:
            clauses = [base] + clauses
        else:
            clauses = clauses + [base]
        for head, body in clauses:
            self._emit(head, body)
        return PredSig(
            name, (("in", "list"), ("in", "int"), ("out", "int")), "fold"
        )

    def _template_map(self, name: str) -> PredSig:
        """``name(IntList, List)`` — map each element through an
        arithmetic step, or filter with cut."""
        head_var, tail, out_head, out_tail = (
            Var("H"), Var("T"), Var("H2"), Var("R"),
        )
        filtering = self.rng.random() < 0.4
        base = (Struct(name, (Atom("[]"), Atom("[]"))), ())
        if filtering:
            guard = Struct(
                self.rng.choice(_COMPARISONS), (head_var, self._ground_int())
            )
            keep = (
                Struct(name, (
                    cons(head_var, tail),
                    cons(head_var, out_tail),
                )),
                (guard, CUT, Struct(name, (tail, out_tail))),
            )
            drop = (
                Struct(name, (cons(Var("_"), tail), out_tail)),
                (Struct(name, (tail, out_tail)),),
            )
            clauses = [base, keep, drop] if self.rng.random() < 0.5 \
                else [keep, drop, base]
            self._feat("template.filter")
            self._feat("builtin.!")
        else:
            step = Struct(
                self.rng.choice(_ARITH_OPS), (head_var, self._ground_int())
            )
            recursive = (
                Struct(name, (
                    cons(head_var, tail),
                    cons(out_head, out_tail),
                )),
                (Struct("is", (out_head, step)),
                 Struct(name, (tail, out_tail))),
            )
            clauses = [base, recursive] if self.rng.random() < 0.5 \
                else [recursive, base]
            self._feat("template.map")
            self._feat("builtin.is")
        for head, body in clauses:
            self._emit(head, body)
        return PredSig(name, (("in", "list"), ("out", "list")), "map")

    def _template_append(self, name: str) -> PredSig:
        head_var, tail, second, out = Var("H"), Var("T"), Var("L"), Var("R")
        base = (Struct(name, (Atom("[]"), second, second)), ())
        recursive = (
            Struct(name, (
                cons(head_var, tail), second,
                cons(head_var, out),
            )),
            (Struct(name, (tail, second, out)),),
        )
        clauses = [base, recursive] if self.rng.random() < 0.7 \
            else [recursive, base]
        for head, body in clauses:
            self._emit(head, body)
        self._feat("template.append")
        return PredSig(
            name, (("in", "list"), ("in", "list"), ("out", "list")), "append"
        )

    def _template_member(self, name: str) -> PredSig:
        element, tail = Var("X"), Var("T")
        self._emit(
            Struct(name, (element, cons(element, Var("_")))), ()
        )
        self._emit(
            Struct(name, (element, cons(Var("_"), tail))),
            (Struct(name, (element, tail)),),
        )
        self._feat("template.member")
        return PredSig(name, (("enum", "int"), ("in", "list")), "member")

    def _template_facts(self, name: str) -> PredSig:
        arity = self.rng.randint(1, 2)
        count = self.rng.randint(2, 4)
        # Sometimes every fact shares its first argument, so indexing
        # emits a try/retry/trust chain instead of a jump-per-key.
        shared_key = (
            Atom(self.rng.choice(ATOM_POOL))
            if self.rng.random() < 0.3 else None
        )
        if shared_key is not None:
            self._feat("facts.shared_key")
        for _ in range(count):
            args = tuple(self._ground_term() for _ in range(arity))
            if shared_key is not None:
                args = (shared_key,) + args[1:]
            self._emit(Struct(name, args), ())
        self._feat("template.facts")
        return PredSig(name, tuple(("enum", "term") for _ in range(arity)),
                       "facts")

    # -- free-form non-recursive predicates ----------------------------

    def _roles_for_rule(self) -> Tuple[Role, ...]:
        arity = self.rng.randint(1, 3)
        roles: List[Role] = []
        for _ in range(arity):
            kind = self.rng.random()
            if kind < 0.45:
                roles.append(("in", self.rng.choice(("int", "term", "list"))))
            elif kind < 0.75:
                roles.append(("out", self.rng.choice(("int", "term", "list"))))
            else:
                roles.append(("in", "int"))
        if not any(role[0] == "in" for role in roles):
            roles[0] = ("in", "int")
        return tuple(roles)

    def _arith_expr(self, bound_ints: List[Var], depth: int = 1) -> Term:
        if depth > 0 and self.rng.random() < 0.5:
            op = self.rng.choice(_ARITH_OPS)
            return Struct(op, (
                self._arith_expr(bound_ints, depth - 1),
                self._arith_expr(bound_ints, depth - 1),
            ))
        if bound_ints and self.rng.random() < 0.6:
            return self.rng.choice(bound_ints)
        return self._ground_int()

    def _call_args(
        self,
        sig: PredSig,
        bound: Dict[str, List[Var]],
        unbound_outs: Dict[Var, str],
    ) -> Tuple[List[Term], List[Tuple[Var, str]]]:
        """Arguments for a body call of ``sig`` respecting modes.
        Returns (args, newly-bound out vars with their types)."""
        args: List[Term] = []
        binds: List[Tuple[Var, str]] = []
        for direction, type_name in sig.roles:
            if direction == "in":
                candidates = bound.get(type_name, [])
                if candidates and self.rng.random() < 0.6:
                    args.append(self.rng.choice(candidates))
                else:
                    args.append(self._ground_of(type_name))
            elif direction == "enum":
                roll = self.rng.random()
                if roll < 0.4:
                    args.append(self._ground_of(type_name))
                else:
                    fresh = self._fresh_var()
                    args.append(fresh)
                    binds.append((fresh, type_name))
            else:  # out
                matching = [
                    var for var, ty in unbound_outs.items() if ty == type_name
                ]
                if matching and self.rng.random() < 0.7:
                    var = matching[0]
                    del unbound_outs[var]
                else:
                    var = self._fresh_var()
                args.append(var)
                binds.append((var, type_name))
        return args, binds

    def _rule_predicate(self, name: str) -> PredSig:
        roles = self._roles_for_rule()
        sig = PredSig(name, roles, "rule")
        for _ in range(self.rng.randint(1, MAX_CLAUSES)):
            self._rule_clause(sig)
        self._feat("template.rule")
        return sig

    def _rule_clause(self, sig: PredSig) -> None:
        bound: Dict[str, List[Var]] = {"int": [], "term": [], "list": []}
        unbound_outs: Dict[Var, str] = {}
        head_args: List[Term] = []
        for direction, type_name in sig.roles:
            if direction == "in":
                # Mostly a variable (bound ground at call time); sometimes
                # a selective constant or list destructuring pattern.
                roll = self.rng.random()
                if roll < 0.6:
                    var = self._fresh_var()
                    head_args.append(var)
                    bound[type_name].append(var)
                    if type_name != "term":
                        bound["term"].append(var)
                elif type_name == "list" and roll < 0.8:
                    head_var, tail = self._fresh_var(), self._fresh_var()
                    head_args.append(cons(head_var, tail))
                    bound["int"].append(head_var)
                    bound["list"].append(tail)
                    bound["term"].extend([head_var, tail])
                    self._feat("head.destructure")
                else:
                    head_args.append(self._ground_of(type_name))
                    self._feat("head.constant")
            else:  # out / enum in the head: var or direct ground binding
                if self.rng.random() < 0.8:
                    var = self._fresh_var()
                    head_args.append(var)
                    unbound_outs[var] = type_name
                else:
                    head_args.append(self._ground_of(type_name))
        head = Struct(sig.name, tuple(head_args))

        body: List[Term] = []
        for _ in range(self.rng.randint(0, MAX_BODY_GOALS)):
            body.extend(self._body_goal(bound, unbound_outs))
        # Close the contract: ground every remaining out variable.
        for var, type_name in list(unbound_outs.items()):
            if type_name == "int" and self.rng.random() < 0.5:
                body.append(
                    Struct("is", (var, self._arith_expr(bound["int"])))
                )
                self._feat("builtin.is")
            else:
                body.append(Struct("=", (var, self._ground_of(type_name))))
                self._feat("builtin.=")
            bound[type_name].append(var)
        if body and self.rng.random() < 0.15:
            body.insert(self.rng.randrange(len(body) + 1), CUT)
            self._feat("builtin.!")
        self._emit(head, body)

    def _body_goal(
        self,
        bound: Dict[str, List[Var]],
        unbound_outs: Dict[Var, str],
    ) -> List[Term]:
        """One body goal respecting the bound environment."""
        choice = self.rng.random()
        if choice < 0.45 and self._pool:
            sig = self.rng.choice(self._pool)
            args, binds = self._call_args(sig, bound, unbound_outs)
            for var, type_name in binds:
                bound[type_name].append(var)
                if type_name != "term":
                    bound["term"].append(var)
            self._feat(f"call.{sig.kind}")
            return [Struct(sig.name, tuple(args))]
        if choice < 0.65:
            left = (
                self.rng.choice(bound["int"])
                if bound["int"] and self.rng.random() < 0.7
                else self._ground_int()
            )
            op = self.rng.choice(_COMPARISONS)
            self._feat(f"builtin.{op}")
            return [Struct(op, (left, self._ground_int()))]
        if choice < 0.8:
            everything = bound["int"] + bound["term"] + bound["list"]
            if everything:
                test = self.rng.choice(("integer", "atom", "nonvar"))
                self._feat(f"builtin.{test}")
                return [Struct(test, (self.rng.choice(everything),))]
            return []
        var = self._fresh_var()
        expression = self._arith_expr(bound["int"])
        bound["int"].append(var)
        bound["term"].append(var)
        self._feat("builtin.is")
        return [Struct("is", (var, expression))]

    # -- main driver and queries ---------------------------------------

    def _main_predicate(self) -> PredSig:
        """``main`` chains helper calls, feeding outputs to inputs when
        the types line up (like the Table 1 benchmark drivers)."""
        bound: Dict[str, List[Var]] = {"int": [], "term": [], "list": []}
        body: List[Term] = []
        for _ in range(self.rng.randint(1, 4)):
            sig = self.rng.choice(self._pool)
            args, binds = self._call_args(sig, bound, {})
            for var, type_name in binds:
                bound[type_name].append(var)
                if type_name != "term":
                    bound["term"].append(var)
            body.append(Struct(sig.name, tuple(args)))
            self._feat(f"call.{sig.kind}")
        self._emit(Atom("main"), body)
        return PredSig("main", (), "main")

    def _query_for(self, sig: PredSig) -> Tuple[str, str]:
        """A concrete goal plus a covering abstract entry spec."""
        if not sig.roles:
            return sig.name, sig.name
        args: List[str] = []
        spec: List[str] = []
        out_counter = 0
        for direction, type_name in sig.roles:
            if direction == "in":
                args.append(term_to_text(self._ground_of(type_name),
                                         quoted=True))
                spec.append("glist" if type_name == "list" else "g")
            elif direction == "enum" and self.rng.random() < 0.5:
                args.append(term_to_text(self._ground_of(type_name),
                                         quoted=True))
                spec.append("g")
            else:
                out_counter += 1
                args.append(f"R{out_counter}")
                spec.append("var")
        goal = f"{sig.name}({', '.join(args)})"
        entry = f"{sig.name}({', '.join(spec)})"
        return goal, entry

    # -- entry point ----------------------------------------------------

    def generate(self) -> GeneratedProgram:
        helper_budget = self.rng.randint(1, MAX_HELPERS)
        templates = ["facts", "rule", "fold", "map", "append", "member"]
        index = 0
        while (
            len(self._pool) < helper_budget
            and len(self._clauses) < self.config.size_budget - 1
        ):
            kind = self.rng.choice(templates)
            name = f"p{index}"
            index += 1
            if kind == "facts":
                sig = self._template_facts(name)
            elif kind == "fold":
                sig = self._template_fold(name)
            elif kind == "map":
                sig = self._template_map(name)
            elif kind == "append":
                sig = self._template_append(name)
            elif kind == "member":
                sig = self._template_member(name)
            else:
                sig = self._rule_predicate(name)
            self._pool.append(sig)
        main_sig = self._main_predicate()

        goals: List[str] = []
        entries: List[str] = []
        goal, entry = self._query_for(main_sig)
        goals.append(goal)
        entries.append(entry)
        queryable = list(self._pool)
        self.rng.shuffle(queryable)
        for sig in queryable[: QUERIES_PER_PROGRAM - 1]:
            goal, entry = self._query_for(sig)
            goals.append(goal)
            entries.append(entry)

        source = "\n".join(self._clauses) + "\n"
        return GeneratedProgram(
            seed=self.seed,
            source=source,
            goals=goals,
            entries=entries,
            features=dict(self.features),
        )


def generate_program(
    seed: int, config: Optional[GenConfig] = None
) -> GeneratedProgram:
    """Convenience wrapper: one seeded program."""
    return ProgramGenerator(seed, config).generate()
