"""Exact separation decision over GF(2) and property harnesses.

Two terms evaluated in an affine groupoid are affine maps of their
variables; they coincide somewhere iff the difference system D.v = d0 is
solvable.  When it is not, a parity functional lam with lam.D = 0 and
lam.d0 = 1 certifies separation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from termsep import gf2
from termsep.cayley import separates_exhaustive
from termsep.terms import Mul, Term, Var, render_term, subterm_at, var_key, variables
from termsep.vecops import (
    OpSum,
    RegisterAllocator,
    VecGroupoid,
    basic_op,
    compile_opsum,
    eval_term_vec,
    op_sum,
    term_affine_form,
    to_cayley,
)

CROSS_CHECK_BUDGET = 2**26


@dataclass(frozen=True)
class AffineDecision:
    separated: bool
    # exactly one of the two witnesses is set
    lam: Optional[frozenset[int]] = None
    assignment: Optional[dict[str, np.ndarray]] = None


def _difference_system(G: VecGroupoid, s: Term, t: Term):
    names = sorted(set(variables(s)) | set(variables(t)), key=var_key)
    S = term_affine_form(G, s)
    T = term_affine_form(G, t)
    m = G.width
    zero = np.zeros((m, m), dtype=np.uint8)
    blocks = [
        (S.coeff.get(name, zero) + T.coeff.get(name, zero)) % 2 for name in names
    ]
    D = np.hstack(blocks) if blocks else np.zeros((m, 0), dtype=np.uint8)
    d0 = (S.const + T.const) % 2
    return names, D, d0


def affine_separation_decision(G: VecGroupoid, s: Term, t: Term) -> AffineDecision:
    names, D, d0 = _difference_system(G, s, t)
    m = G.width
    solution = gf2.solve(D, d0)
    if solution is not None:
        assignment = {
            name: solution[i * m : (i + 1) * m] for i, name in enumerate(names)
        }
        value_s = eval_term_vec(G, s, assignment) if m else np.zeros(0, dtype=np.uint8)
        value_t = eval_term_vec(G, t, assignment) if m else np.zeros(0, dtype=np.uint8)
        if not np.array_equal(value_s, value_t):
            raise AssertionError("equality witness failed re-evaluation")
        return AffineDecision(False, assignment=assignment)
    # lam . D = 0 with lam . d0 = 1; stack both conditions as one system
    system = np.vstack([D.T, d0.reshape(1, -1)])
    rhs = np.zeros(system.shape[0], dtype=np.uint8)
    rhs[-1] = 1
    lam_vec = gf2.min_weight_solution(system, rhs)
    if lam_vec is None:
        raise AssertionError("separated instance must admit a parity functional")
    lam = frozenset(int(G.indices[i]) for i in np.nonzero(lam_vec)[0])
    return AffineDecision(True, lam=lam)


def check_parity_functional(
    G: VecGroupoid, s: Term, t: Term, lam: frozenset[int]
) -> bool:
    """Does the register set lam sum to constantly different values?"""
    _, D, d0 = _difference_system(G, s, t)
    sel = np.zeros(G.width, dtype=np.uint8)
    for reg in lam:
        sel[G.position(reg)] = 1
    linear = (sel @ D) % 2
    return not linear.any() and int(sel @ d0) % 2 == 1


def cross_check(
    G: VecGroupoid, s: Term, t: Term, budget: int = CROSS_CHECK_BUDGET
) -> bool:
    """Affine decision vs. brute force over the compiled table."""
    nvars = len(set(variables(s)) | set(variables(t)))
    space = G.order**nvars
    if space > budget:
        raise ValueError(f"{space} assignments exceed cross-check budget")
    affine = affine_separation_decision(G, s, t)
    brute = separates_exhaustive(to_cayley(G), s, t, budget=budget)
    return affine.separated == brute.separated


# --- lemma harness ---------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    trials: int
    plain_checked: int
    tweaked_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_term_with_path(rng: random.Random, path: str, max_extra_depth: int) -> Term:
    """A term in which `path` addresses a node, with random side branches."""
    counter = [0]

    def fresh_leaf() -> Term:
        counter[0] += 1
        return Var(f"v{counter[0]}")

    def random_tree(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.4:
            return fresh_leaf()
        return Mul(random_tree(depth - 1), random_tree(depth - 1))

    def along(i: int) -> Term:
        if i == len(path):
            return random_tree(max_extra_depth)
        child = along(i + 1)
        branch = random_tree(max_extra_depth)
        return Mul(child, branch) if path[i] == "l" else Mul(branch, child)

    return along(0)


def _component_formula(G: VecGroupoid, t: Term, register: int):
    """Affine form of one output component: ({var: row}, const_bit)."""
    form = term_affine_form(G, t)
    pos = G.position(register)
    rows = {name: form.coeff[name][pos] for name in form.vars}
    return rows, int(form.const[pos])


def _env_zero(G: VecGroupoid, names) -> dict[str, np.ndarray]:
    return {n: np.zeros(G.width, dtype=np.uint8) for n in names}


def check_transfer_lemma(G: VecGroupoid, opsum: OpSum, op_index: int, term: Term) -> bool:
    """s[n] equals s_p[m] (plus 1 when tweaked) as affine forms.

    Comparing affine forms is equivalent to comparing values on every
    assignment, and stays exact at any width.
    """
    op = opsum.summands[op_index]
    sub = subterm_at(term, op.p)
    whole_rows, whole_const = _component_formula(G, term, op.n)
    sub_rows, sub_const = _component_formula(G, sub, op.m)
    names = set(variables(term))
    for name in names:
        want = sub_rows.get(name)
        got = whole_rows.get(name)
        if want is None:
            want = np.zeros(G.width, dtype=np.uint8)
        if got is None:
            got = np.zeros(G.width, dtype=np.uint8)
        if not np.array_equal(want, got):
            return False
    expect_const = (sub_const + (1 if op.tweaked else 0)) % 2
    return whole_const == expect_const


def _random_opsum(rng: random.Random) -> tuple[OpSum, int]:
    """Random duplicate-free OpSum; returns (opsum, index of focus op)."""
    alloc = RegisterAllocator()
    used_targets: set[int] = set()
    ops = []
    count = rng.randint(1, 3)
    for i in range(count):
        p = "".join(rng.choice("lr") for _ in range(rng.randint(1, 3)))
        for _ in range(20):
            m = rng.randint(0, 5)
            n = rng.randint(0, 5)
            chain_targets = {n} | set(range(alloc.next, alloc.next + len(p) - 1))
            if not (chain_targets & used_targets):
                break
        else:
            continue
        alloc.reserve((m, n))
        op = basic_op(m, p, n, rng.random() < 0.5, alloc)
        if {eq.target for eq in op.equations()} & used_targets:
            continue
        used_targets |= {eq.target for eq in op.equations()}
        ops.append(op)
    if not ops:
        ops = [basic_op(1, "l", 0, False, alloc)]
    return op_sum(ops), rng.randrange(len(ops))


def lemma_harness(trials: int = 1000, seed: int = 0) -> LemmaReport:
    """Random (OpSum, term, path) instances for both transfer lemmas."""
    rng = random.Random(seed)
    plain = tweaked = 0
    failures = []
    for trial in range(trials):
        opsum, focus = _random_opsum(rng)
        op = opsum.summands[focus]
        term = _random_term_with_path(rng, op.p, max_extra_depth=2)
        G = compile_opsum(opsum)
        if check_transfer_lemma(G, opsum, focus, term):
            if op.tweaked:
                tweaked += 1
            else:
                plain += 1
        else:
            failures.append(f"trial {trial}: {opsum.render()} on {render_term(term)}")
    return LemmaReport(trials, plain, tweaked, tuple(failures))

