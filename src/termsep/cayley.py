"""Explicit finite groupoids as n-by-n operation tables.

Brute force has two engines with one contract.  separations checks many
term pairs against one table in a single walk over the assignments,
evaluating each distinct subterm once per block of assignments for all
the pairs.  affine_separations checks them against an affine groupoid
over GF(2) (a vecops.VecGroupoid) without building its table: it
bit-slices the walk, holding each register of each subterm as one int
with a bit per assignment of the block, so a product is a few XORs of
whole ints per register (Biham, "A Fast New DES Implementation in
Software", FSE 1997).  Its verdicts, counterexamples and budget error
are those of separations on vecops.to_cayley of the groupoid.  Both
walks enumerate assignments in lexicographic order over the canonical
variable order (see terms.variables), so the first counterexample
reported for a pair is reproducible.  separates_exhaustive is the
one-pair case and is_k_antiassociative one call over all pairs of
ordered terms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from termsep.terms import Term, Var, enumerate_ordered_terms, steps, var_key

if TYPE_CHECKING:
    from termsep.vecops import VecGroupoid

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
    """t's value in G under env, leaf by leaf, left to right, with no
    sharing: a plain reference, independent of terms.steps.  The walk keeps
    its own stack, so a term of any depth evaluates."""
    values: list[int] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if t is None:  # both factors of the product below are evaluated
            right = values.pop()
            values.append(G.op(values.pop(), right))
        elif isinstance(t, Var):
            if t.name not in env:
                raise KeyError(f"no value for variable {t.name}")
            v = env[t.name]
            if not (0 <= v < G.n):
                raise ValueError(f"value {v} out of range for order {G.n}")
            values.append(v)
        else:
            stack += (None, t.right, t.left)
    return values[0]


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


@functools.cache
def _bit_patterns(bits: int) -> tuple[int, ...]:
    """Per b < bits, the int of 2**bits bits whose bit j is bit b of j,
    built by doubling a run of 2**b zeros and 2**b ones."""
    out = []
    for b in range(bits):
        run = 1 << b
        pattern, length = ((1 << run) - 1) << run, 2 * run
        while length < 1 << bits:
            pattern |= pattern << length
            length *= 2
        out.append(pattern)
    return tuple(out)


def affine_separations(
    G: "VecGroupoid",
    pairs: Sequence[tuple[Term, Term]],
    budget: int = DEFAULT_EVAL_BUDGET,
) -> list[SeparationVerdict]:
    """separations(to_cayley(G), pairs, budget), bit-sliced over G's rows.

    An assignment of the width-m groupoid to the variables is an integer
    of m bits per variable, the first variable highest; component k of a
    value is its bit m-1-k, as in to_cayley, so assignments in numeric
    order are in lexicographic order.  A block holds the assignments
    that differ in their low bits only, at most _CHUNK of them, and each
    register of each distinct subterm is one int with a bit per
    assignment of the block, kept in a slot of one list.  A low
    assignment bit is a fixed pattern of the block and a high one is 0
    or all ones.  Register r of a product is the XOR of the left
    factor's registers in xrows[r], the right factor's in yrows[r], and
    all ones where cbits has bit r: the products compile once to a list
    of slot copies and XORs, run once per block.  A subterm whose
    variables own no high bit is evaluated once per call.  A pair is
    separated in a block when, for every assignment, some register of s
    differs from that of t; the lowest assignment where none does is its
    counterexample, and the pair is not checked again.
    """
    if not pairs:
        return []
    prog, roots = steps([term for pair in pairs for term in pair])
    names = sorted((step for step in prog if isinstance(step, str)), key=var_key)
    m, n = G.width, G.order
    total = n ** len(names)
    if total > budget:
        raise BudgetExceededError(f"{total} assignments exceed budget {budget}")
    nbits = m * len(names)
    low = min(nbits, _CHUNK.bit_length() - 1)
    ones = (1 << (1 << low)) - 1
    patterns = _bit_patterns(low)
    # step i keeps register r in slot m*i + r; two last slots hold 0 and ones
    zero, full = m * len(prog), m * len(prog) + 1
    regs = [0] * (full + 1)
    regs[full] = ones
    rank = {name: i for i, name in enumerate(names)}
    masks: list[int] = []  # per step, a bit per variable it holds
    high = []  # per variable register above the block's bits: slot, bit
    for i, step in enumerate(prog):
        if isinstance(step, str):
            masks.append(1 << rank[step])
            for k in range(m):
                pos = m * (len(names) - rank[step]) - 1 - k
                if pos < low:
                    regs[m * i + k] = patterns[pos]
                else:
                    high.append((m * i + k, pos - low))
        else:
            masks.append(masks[step[0]] | masks[step[1]])
    varying = 0
    for slot, _ in high:
        varying |= masks[slot // m]

    def compile_products(plan) -> list[tuple[int, int, bool]]:
        """(slot, source, xor): copy the source into the slot, or XOR it in."""
        out = []
        for i in plan:
            if isinstance(prog[i], str):
                continue
            left, right = (m * j for j in prog[i])
            for r, (xs, ys) in enumerate(G.sources):
                sources = [left + j for j in xs] + [right + j for j in ys]
                sources += [full] * ((G.cbits >> r) & 1)
                out.append((m * i + r, sources[0] if sources else zero, False))
                out += [(m * i + r, source, True) for source in sources[1:]]
        return out

    def run(program):
        for slot, source, xor in program:
            regs[slot] = regs[slot] ^ regs[source] if xor else regs[source]

    def counterexample(pair, block) -> Optional[SeparationVerdict]:
        root_s, root_t = roots[2 * pair], roots[2 * pair + 1]
        differ = 0
        for r in range(m):
            differ |= regs[m * root_s + r] ^ regs[m * root_t + r]
            if differ == ones:
                return None
        miss = ones ^ differ
        point = (block << low) | ((miss & -miss).bit_length() - 1)
        own = masks[root_s] | masks[root_t]
        assignment = {
            name: (point >> (m * (len(names) - 1 - i))) & (n - 1)
            for i, name in enumerate(names)
            if (own >> i) & 1
        }
        return SeparationVerdict(False, assignment)

    run(compile_products(i for i in range(len(prog)) if not masks[i] & varying))
    verdicts: list[Optional[SeparationVerdict]] = [None] * len(pairs)
    active = []
    for pair in range(len(pairs)):
        if (masks[roots[2 * pair]] | masks[roots[2 * pair + 1]]) & varying:
            active.append(pair)
        else:  # the same in every block
            verdicts[pair] = counterexample(pair, 0)
    per_block = compile_products(i for i in range(len(prog)) if masks[i] & varying)
    for block in range(1 << (nbits - low)):
        if not active:
            break
        for slot, h in high:
            regs[slot] = ones if (block >> h) & 1 else 0
        run(per_block)
        undecided = []
        for pair in active:
            verdicts[pair] = counterexample(pair, block)
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
    if k < 3:
        raise ValueError("antiassociativity needs k >= 3")
    pairs = list(itertools.combinations(enumerate_ordered_terms(k), 2))
    for (s, t), verdict in zip(pairs, separations(G, pairs, budget=budget)):
        if not verdict.separated:
            return AntiassociativityReport(k, False, (s, t), verdict.counterexample)
    return AntiassociativityReport(k, True)
