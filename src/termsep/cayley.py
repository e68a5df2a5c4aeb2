"""Explicit finite groupoids as n-by-n operation tables.

Brute force has one engine, separations: it checks many term pairs
against one table in a single walk over the assignments, evaluating each
distinct subterm once per block of assignments for all the pairs.  The
walk enumerates assignments in lexicographic order over the canonical
variable order (see terms.variables), so the first counterexample
reported for a pair is reproducible.  separates_exhaustive is the
one-pair case and is_k_antiassociative one call over all pairs of
ordered terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from termsep.terms import Term, Var, steps, var_key

DEFAULT_EVAL_BUDGET = 2**26
# assignments evaluated at once: for orders up to 256 a block's values take
# 32 KiB and their table indices 64 KiB, which stay in one core's own cache
# and below the size malloc maps fresh from the kernel, so the check's time
# follows the core's speed, not page faults or a shared cache
_CHUNK = 2**15


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


def separations(
    G: CayleyGroupoid,
    pairs: Sequence[tuple[Term, Term]],
    budget: int = DEFAULT_EVAL_BUDGET,
) -> list[SeparationVerdict]:
    """separates_exhaustive for each pair, from one walk over the assignments.

    The walk runs over the variables of all the pairs.  The trailing
    variables whose joint range fits in _CHUNK each get an axis of a
    block; the leading ones are fixed per block.  Each distinct subterm
    is evaluated once per block, over the axes of its own variables only,
    for every pair that holds it; one that holds no variable fixed per
    block is evaluated once per call.  A pair is no longer checked after
    its first counterexample, which names its own variables only, and
    the walk stops once every pair has one.
    """
    if not pairs:
        return []
    prog, roots = steps([term for pair in pairs for term in pair])
    names = sorted((step for step in prog if isinstance(step, str)), key=var_key)
    n = G.n
    total = n ** len(names)
    if total > budget:
        raise BudgetExceededError(f"{total} assignments exceed budget {budget}")
    inner = 1
    while inner < len(names) and n ** (inner + 1) <= _CHUNK:
        inner += 1
    lead = len(names) - inner
    # the last variable's range is cut into slices when n > _CHUNK
    sliced = n > _CHUNK
    varying = (1 << lead) - 1 | sliced << (len(names) - 1)
    bit = {name: 1 << i for i, name in enumerate(names)}
    masks: list[int] = []  # per step, a bit per variable it holds
    for step in prog:
        if isinstance(step, str):
            masks.append(bit[step])
        else:
            masks.append(masks[step[0]] | masks[step[1]])
    # values take the smallest unsigned type; a product's entry sits at
    # left * n + right of the flat table, computed in idx, a type that
    # holds n * n, whatever the promotion rules of the numpy in use
    flat = np.asarray(G.table, dtype=np.min_scalar_type(max(n - 1, 0))).reshape(-1)
    idx = np.min_scalar_type(max(n * n - 1, 0))
    env = {
        name: np.arange(n, dtype=flat.dtype).reshape(
            [n if j == i else 1 for j in range(inner)]
        )
        for i, name in enumerate(names[lead:])
    }
    values: list = [None] * len(prog)

    def evaluate(plan):
        for i in plan:
            step = prog[i]
            if isinstance(step, str):
                values[i] = env[step]
            else:
                left, right = step
                index = np.multiply(values[left], n, dtype=idx)
                values[i] = np.take(flat, np.add(index, values[right], dtype=idx))

    def counterexample(pair, fixed, lo) -> Optional[SeparationVerdict]:
        root_s, root_t = roots[2 * pair], roots[2 * pair + 1]
        equal = values[root_s] == values[root_t]
        if not equal.any():
            return None
        hit = np.unravel_index(int(np.argmax(equal)), np.shape(equal))
        # axes a pair's values lack are its missing variables, set to 0
        point = [*fixed, *[0] * (inner - len(hit)), *map(int, hit)]
        point[-1] += lo
        own = masks[root_s] | masks[root_t]
        assignment = {name: v for name, v in zip(names, point) if own & bit[name]}
        return SeparationVerdict(False, assignment)

    evaluate([i for i in range(len(prog)) if not masks[i] & varying])
    verdicts: list[Optional[SeparationVerdict]] = [None] * len(pairs)
    active = []
    for pair in range(len(pairs)):
        if (masks[roots[2 * pair]] | masks[roots[2 * pair + 1]]) & varying:
            active.append(pair)
        else:  # the same in every block
            verdicts[pair] = counterexample(pair, [0] * lead, 0)
    blocks = itertools.product(
        itertools.product(range(n), repeat=lead), range(0, n, _CHUNK)
    )
    scalar = flat.dtype.type
    per_block = [i for i in range(len(prog)) if masks[i] & varying]
    for fixed, lo in blocks:
        if not active:
            break
        env.update(zip(names, map(scalar, fixed)))
        if sliced:
            env[names[-1]] = np.arange(lo, min(lo + _CHUNK, n), dtype=flat.dtype)
        evaluate(per_block)
        undecided = []
        for pair in active:
            verdicts[pair] = counterexample(pair, fixed, lo)
            if verdicts[pair] is None:
                undecided.append(pair)
        active = undecided
    return [v if v is not None else SeparationVerdict(True) for v in verdicts]


def separates_exhaustive(
    G: CayleyGroupoid,
    s: Term,
    t: Term,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> SeparationVerdict:
    """Check all assignments; counterexamples come lexicographic-first."""
    return separations(G, [(s, t)], budget=budget)[0]


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
    pairs = list(itertools.combinations(enumerate_ordered_terms(k), 2))
    for (s, t), verdict in zip(pairs, separations(G, pairs, budget=budget)):
        if not verdict.separated:
            return AntiassociativityReport(k, False, (s, t), verdict.counterexample)
    return AntiassociativityReport(k, True)
