"""Exact separation decision over GF(2) and property harnesses.

Two terms evaluated in an affine groupoid are affine maps of their
variables; they coincide somewhere iff the difference system D.v = d0 is
solvable.  When it is not, a parity functional lam with lam.D = 0 and
lam.d0 = 1 certifies separation.

The decision builds D from every register's row over all the variables.
The parity check builds no system: it pulls lam back through the terms
from the roots to the variables, holding at each subterm the functional
reaches only the registers it reads there, and so stays independent of
the decision and of gf2.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from termsep import gf2
from termsep.cayley import DEFAULT_EVAL_BUDGET, separates_exhaustive
from termsep.terms import Mul, Term, Var, render_term, steps, subterm_at, var_key, variables
from termsep.vecops import (
    AffineTermForm,
    OpSum,
    RegisterAllocator,
    VecGroupoid,
    basic_op,
    compile_opsum,
    op_sum,
    program_rows,
    program_values,
    term_affine_form,
    to_cayley,
)

CROSS_CHECK_BUDGET = DEFAULT_EVAL_BUDGET


@dataclass(frozen=True)
class AffineDecision:
    separated: bool
    # exactly one of the two witnesses is set
    lam: Optional[frozenset[int]] = None
    # the equality witness, each variable's value packed into an int
    witness: Optional[dict[str, int]] = None
    width: int = 0

    @cached_property
    def assignment(self) -> Optional[dict[str, np.ndarray]]:
        """The equality witness as one bit vector per variable."""
        if self.witness is None:
            return None
        return {name: gf2.unpack(value, self.width) for name, value in self.witness.items()}


def _difference_system(G: VecGroupoid, s: Term, t: Term):
    """D | d0 as packed rows: the affine form of s + t over the variables
    of both, sorted, from one program for (s, t)."""
    prog, roots = steps([s, t])
    names = sorted([step for step in prog if isinstance(step, str)], key=var_key)
    S, T = program_rows(G, prog, roots, names)
    diff = AffineTermForm.from_rows(names, G.width, [a ^ b for a, b in zip(S, T)])
    return prog, roots, names, gf2.Matrix(diff.rows, len(names) * G.width), diff.const_bits


def affine_separation_decision(G: VecGroupoid, s: Term, t: Term) -> AffineDecision:
    prog, roots, names, D, d0 = _difference_system(G, s, t)
    m = G.width
    solution = gf2.solve(D, d0)
    if solution is not None:
        mask = (1 << m) - 1
        env = {name: (solution >> (k * m)) & mask for k, name in enumerate(names)}
        value_s, value_t = program_values(G, prog, roots, env)
        if value_s != value_t:
            raise AssertionError("equality witness failed re-evaluation")
        return AffineDecision(False, witness=env, width=m)
    # lam . D = 0 with lam . d0 = 1; stack both conditions as one system
    system = D.transpose()
    system.rows.append(d0)
    lam_vec = gf2.min_weight_solution(system, 1 << (len(system.rows) - 1))
    if lam_vec is None:
        raise AssertionError("separated instance must admit a parity functional")
    lam = frozenset(reg for i, reg in enumerate(G.indices) if (lam_vec >> i) & 1)
    return AffineDecision(True, lam=lam)


def check_parity_functionals(
    G: VecGroupoid, pairs: Sequence[tuple[Term, Term]], lams: Sequence[frozenset[int]]
) -> list[bool]:
    """For each pair (s, t) and its register set lam: does lam sum to
    constantly different values on s and t?

    The functional lam . (s + t) is pulled back through one program of
    the terms of every pair, from the roots down.  At a product step,
    f . (X.l + Y.r + c) = (f.X) . l + (f.Y) . r + f . c, so f passes to
    the factors as f.X and f.Y and adds the parity of f & c to the
    constant.  lam passes iff no variable is reached and the constant is
    1.  The pairs go down together, pair p as bit p of one int per step
    and register.  Steps are taken highest first, so each step has its
    parents' shares before it passes its own on, and only the steps some
    functional reaches do any work.
    """
    prog, roots = steps([term for pair in pairs for term in pair])
    # per step, None or {register j: the pairs whose functional reads j}
    pulled: list = [None] * len(prog)
    for p, (s, t, lam) in enumerate(zip(roots[::2], roots[1::2], lams, strict=True)):
        js = [G.position(reg) for reg in lam]
        for root in (s, t):
            if pulled[root] is None:
                pulled[root] = defaultdict(int)
            for j in js:
                pulled[root][j] ^= 1 << p
    sources, cbits = G.sources, G.cbits
    constant = reached = 0
    for step in range(len(prog) - 1, -1, -1):
        f = pulled[step]
        if f is None:
            continue
        pulled[step] = None
        factors = prog[step]
        if isinstance(factors, str):
            for F in f.values():
                reached |= F
            continue
        for factor in factors:
            if pulled[factor] is None:
                pulled[factor] = defaultdict(int)
        left, right = pulled[factors[0]], pulled[factors[1]]
        for i, F in f.items():
            if F:
                if (cbits >> i) & 1:
                    constant ^= F
                xs, ys = sources[i]
                for j in xs:
                    left[j] ^= F
                for j in ys:
                    right[j] ^= F
    passed = constant & ~reached
    return [bool((passed >> p) & 1) for p in range(len(lams))]


def check_parity_functional(
    G: VecGroupoid, s: Term, t: Term, lam: frozenset[int]
) -> bool:
    """Does the register set lam sum to constantly different values?"""
    return check_parity_functionals(G, [(s, t)], [lam])[0]


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

    # the spine from the bottom up: the node at `path` first, then one side
    # branch per step of the path, last step first
    term = random_tree(max_extra_depth)
    for step in reversed(path):
        branch = random_tree(max_extra_depth)
        term = Mul(term, branch) if step == "l" else Mul(branch, term)
    return term


def check_transfer_lemma(G: VecGroupoid, opsum: OpSum, op_index: int, term: Term) -> bool:
    """s[n] equals s_p[m] (plus 1 when tweaked) as affine forms.

    Comparing affine forms is equivalent to comparing values on every
    assignment, and stays exact at any width.
    """
    op = opsum.summands[op_index]
    names = variables(term)
    whole = term_affine_form(G, term, names)
    sub = term_affine_form(G, subterm_at(term, op.p), names)
    n, m = G.position(op.n), G.position(op.m)
    if whole.rows[n] != sub.rows[m]:
        return False
    return (whole.const_bits >> n) & 1 == ((sub.const_bits >> m) & 1) ^ op.tweaked


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

