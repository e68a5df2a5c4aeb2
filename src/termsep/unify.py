"""Syntactic unification of groupoid terms with derivation traces.

The solver works a statement set with four rules: Decompose, Coalesce,
Check and Eliminate.  The strategy is fixed (Decompose eagerly, then
Check before each Eliminate/Coalesce) so traces are reproducible; the
rules themselves decide unifiability regardless of order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from termsep.terms import Mul, Term, Var, fold, render_term, replace_leaves, variables


@dataclass(frozen=True)
class Statement:
    lhs: Term
    rhs: Term

    def render(self) -> str:
        return f"{render_term(self.lhs)} = {render_term(self.rhs)}"


@dataclass(frozen=True)
class TraceStep:
    rule: str  # Decompose | Coalesce | Check | Eliminate
    consumed: Statement
    produced: tuple[Statement, ...]

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "consumed": self.consumed.render(),
            "produced": [st.render() for st in self.produced],
        }


@dataclass(frozen=True)
class UnifyOutcome:
    substitution: Optional[dict[str, Term]]  # None means not unifiable
    trace: tuple[TraceStep, ...]

    @property
    def unifiable(self) -> bool:
        return self.substitution is not None

    def to_json(self) -> dict:
        if self.substitution is None:
            result = {"result": "not_unifiable", "bindings": None}
        else:
            result = {
                "result": "unifier",
                "bindings": {
                    name: render_term(t) for name, t in sorted(self.substitution.items())
                },
            }
        result["trace"] = [step.to_json() for step in self.trace]
        return result


def occurs_in(name: str, t: Term) -> bool:
    return fold([t], lambda v: v.name == name, lambda m, left, right: left or right)[0]


def substitute(t: Term, name: str, replacement: Term) -> Term:
    return replace_leaves([t], lambda v: replacement if v.name == name else v)[0]


def apply_subst(subst: dict[str, Term], t: Term) -> Term:
    """Apply bindings simultaneously; bindings are fully normalized."""
    return replace_leaves([t], lambda v: subst.get(v.name, v))[0]


def unify(s: Term, t: Term) -> UnifyOutcome:
    worklist: list[Statement] = [Statement(s, t)]
    solved: dict[str, Term] = {}
    trace: list[TraceStep] = []

    def substitute_everywhere(name: str, replacement: Term):
        # one walk over every open statement and binding, sharing subterms
        roots = [term for st in worklist for term in (st.lhs, st.rhs)]
        out = replace_leaves(
            roots + list(solved.values()),
            lambda v: replacement if v.name == name else v,
        )
        worklist[:] = map(Statement, out[: len(roots) : 2], out[1 : len(roots) : 2])
        solved.update(zip(solved, out[len(roots) :]))

    while worklist:
        st = worklist.pop(0)
        lhs, rhs = st.lhs, st.rhs
        if lhs == rhs:
            continue
        if isinstance(lhs, Mul) and isinstance(rhs, Mul):
            produced = (
                Statement(lhs.left, rhs.left),
                Statement(lhs.right, rhs.right),
            )
            trace.append(TraceStep("Decompose", st, produced))
            worklist.extend(produced)
            continue
        # orient so a variable is on the left
        if not isinstance(lhs, Var):
            lhs, rhs = rhs, lhs
            st = Statement(lhs, rhs)
        name = lhs.name
        if isinstance(rhs, Var):
            trace.append(TraceStep("Coalesce", st, ()))
            substitute_everywhere(name, rhs)
            solved[name] = rhs
            continue
        if occurs_in(name, rhs):
            trace.append(TraceStep("Check", st, ()))
            return UnifyOutcome(None, tuple(trace))
        trace.append(TraceStep("Eliminate", st, ()))
        substitute_everywhere(name, rhs)
        solved[name] = rhs
        continue

    # each Eliminate and Coalesce rewrote the earlier bindings, so they are
    # already fully applied
    unified_s, unified_t = replace_leaves([s, t], lambda v: solved.get(v.name, v))
    if unified_s != unified_t:
        raise AssertionError("unifier failed its own soundness check")
    return UnifyOutcome(solved, tuple(trace))


@dataclass(frozen=True)
class AbstractSeparability:
    separable: bool
    # For the inseparable case: terms over the single variable x whose
    # substitution makes s and t identical.
    witness: Optional[dict[str, Term]] = None


def collapse_to_one_variable(t: Term) -> Term:
    x = Var("x")
    return replace_leaves([t], lambda v: x)[0]


def decide_abstract_separability(s: Term, t: Term) -> AbstractSeparability:
    """Separable in some (possibly infinite) groupoid iff not unifiable."""
    outcome = unify(s, t)
    if not outcome.unifiable:
        return AbstractSeparability(True)
    names = variables(Mul(s, t))
    bound = [outcome.substitution.get(name, Var(name)) for name in names]
    # one fold over all the bindings: a subterm they share is collapsed once
    x = Var("x")
    witness = replace_leaves(bound, lambda v: x)
    return AbstractSeparability(False, dict(zip(names, witness)))
