"""Explicit finite groupoids as n-by-n operation tables.

Brute-force separation checks enumerate assignments in lexicographic
order over the canonical variable order (see terms.variables), so the
first counterexample reported is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from termsep.terms import Mul, Term, Var, var_key, variables

DEFAULT_EVAL_BUDGET = 2**26
# assignments evaluated at once: int64 arrays of 64 KiB stay in one core's
# own cache and below the size malloc maps fresh from the kernel, so the
# check's time follows the core's speed, not page faults or a shared cache
_CHUNK = 2**13


class BudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class CayleyGroupoid:
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.table)
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("table must be square with entries in 0..n-1")

    @property
    def n(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def to_json(self) -> dict:
        return {"n": self.n, "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, obj: dict) -> "CayleyGroupoid":
        return cls(tuple(tuple(row) for row in obj["table"]))

    def to_csv(self) -> str:
        lines = [str(self.n)]
        lines += [",".join(str(v) for v in row) for row in self.table]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CayleyGroupoid":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        n = int(lines[0])
        rows = tuple(tuple(int(v) for v in ln.split(",")) for ln in lines[1 : n + 1])
        return cls(rows)


@dataclass(frozen=True)
class SeparationVerdict:
    separated: bool
    counterexample: Optional[dict[str, int]] = None

    def __post_init__(self):
        if self.separated and self.counterexample is not None:
            raise ValueError("separated verdicts carry no counterexample")
        if not self.separated and self.counterexample is None:
            raise ValueError("non-separated verdicts need a counterexample")


def eval_cayley(G: CayleyGroupoid, t: Term, env: dict[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise KeyError(f"no value for variable {t.name}")
        v = env[t.name]
        if not (0 <= v < G.n):
            raise ValueError(f"value {v} out of range for order {G.n}")
        return v
    return G.op(eval_cayley(G, t.left, env), eval_cayley(G, t.right, env))


def deranged_groupoid(n: int, f: Sequence[int], side: str) -> CayleyGroupoid:
    """x*y = f(x) (side LEFT) or f(y) (side RIGHT) for fixpoint-free f."""
    if n < 2:
        raise ValueError("no fixpoint-free map on fewer than 2 elements")
    if len(f) != n or any(not (0 <= f[i] < n) for i in range(n)):
        raise ValueError("f must map 0..n-1 into 0..n-1")
    if any(f[i] == i for i in range(n)):
        raise ValueError("f has a fixed point")
    if side == "LEFT":
        table = tuple(tuple(f[x] for _ in range(n)) for x in range(n))
    elif side == "RIGHT":
        table = tuple(tuple(f[y] for y in range(n)) for _ in range(n))
    else:
        raise ValueError("side must be LEFT or RIGHT")
    return CayleyGroupoid(table)


def product_groupoid(G: CayleyGroupoid, H: CayleyGroupoid) -> CayleyGroupoid:
    """Componentwise operation on pairs encoded as i*|H| + j."""
    n, m = G.n, H.n
    if n * m > 2**14:
        raise ValueError(f"product order {n * m} over bound")
    table = []
    for i, j in itertools.product(range(n), range(m)):
        row = []
        for k, l in itertools.product(range(n), range(m)):
            row.append(G.op(i, k) * m + H.op(j, l))
        table.append(tuple(row))
    return CayleyGroupoid(tuple(table))


def _steps(terms: Sequence[Term]) -> tuple[list, list[int]]:
    """Post-order evaluation steps of the terms and each term's last step.

    A step is a variable name or the pair of the earlier steps it
    multiplies.  The walk keeps its own stack, so a deep term needs no
    recursion.
    """
    steps: list = []
    roots = []
    for t in terms:
        done: list[int] = []
        stack: list = [t]
        while stack:
            node = stack.pop()
            if node is None:  # both children of a product are done
                right = done.pop()
                steps.append((done.pop(), right))
                done.append(len(steps) - 1)
            elif isinstance(node, Var):
                steps.append(node.name)
                done.append(len(steps) - 1)
            else:
                stack += (None, node.right, node.left)
        roots.append(done.pop())
    return steps, roots


def separates_exhaustive(
    G: CayleyGroupoid,
    s: Term,
    t: Term,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> SeparationVerdict:
    """Check all assignments; counterexamples come lexicographic-first.

    The trailing variables whose joint range fits in _CHUNK each get an
    axis of a block; the leading ones are fixed per block.  A subterm is
    evaluated over the axes of its own variables only and broadcast.
    """
    names = sorted(set(variables(s)) | set(variables(t)), key=var_key)
    n = G.n
    total = n ** len(names)
    if total > budget:
        raise BudgetExceededError(f"{total} assignments exceed budget {budget}")
    inner = 1
    while inner < len(names) and n ** (inner + 1) <= _CHUNK:
        inner += 1
    lead, trail = names[: len(names) - inner], names[len(names) - inner :]
    env = {
        name: np.arange(n).reshape([n if j == i else 1 for j in range(inner)])
        for i, name in enumerate(trail[:-1])
    }
    flat = np.asarray(G.table, dtype=np.intp).reshape(-1)
    steps, (root_s, root_t) = _steps((s, t))
    for fixed in itertools.product(range(n), repeat=len(lead)):
        env.update(zip(lead, fixed))
        # the last variable's range is cut into slices when n > _CHUNK
        for lo in range(0, n, _CHUNK):
            env[trail[-1]] = np.arange(lo, min(lo + _CHUNK, n))
            values = []
            for step in steps:
                if isinstance(step, str):
                    values.append(env[step])
                else:
                    left, right = step
                    values.append(flat[values[left] * n + values[right]])
            # every variable occurs in s or t, so equal spans the whole block
            equal = values[root_s] == values[root_t]
            if equal.any():
                hit = np.unravel_index(int(np.argmax(equal)), equal.shape)
                assignment = dict(zip(lead, fixed))
                for name, i in zip(trail, hit):
                    assignment[name] = int(i)
                assignment[trail[-1]] += lo
                return SeparationVerdict(False, assignment)
    return SeparationVerdict(True)


@dataclass(frozen=True)
class AntiassociativityReport:
    k: int
    antiassociative: bool
    failing_pair: Optional[tuple[Term, Term]] = None
    counterexample: Optional[dict[str, int]] = None


def is_k_antiassociative(
    G: CayleyGroupoid, k: int, budget: int = DEFAULT_EVAL_BUDGET
) -> AntiassociativityReport:
    """Does G separate every pair of distinct k-ary ordered terms?"""
    from termsep.terms import enumerate_ordered_terms

    if k < 3:
        raise ValueError("antiassociativity needs k >= 3")
    for s, t in itertools.combinations(enumerate_ordered_terms(k), 2):
        verdict = separates_exhaustive(G, s, t, budget=budget)
        if not verdict.separated:
            return AntiassociativityReport(k, False, (s, t), verdict.counterexample)
    return AntiassociativityReport(k, True)


def closed_subsets(G: CayleyGroupoid) -> Iterable[frozenset[int]]:
    """Nonempty subsets closed under the table (subgroupoid universes)."""
    for size in range(1, G.n + 1):
        for subset in itertools.combinations(range(G.n), size):
            ss = set(subset)
            if all(G.op(a, b) in ss for a in ss for b in ss):
                yield frozenset(ss)


def restrict(G: CayleyGroupoid, subset: Sequence[int]) -> CayleyGroupoid:
    """Subgroupoid on a closed subset, re-indexed by sorted position."""
    elems = sorted(subset)
    pos = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(pos[G.op(a, b)] for b in elems) for a in elems)
    return CayleyGroupoid(table)
