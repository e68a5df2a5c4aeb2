"""Seeded input generators, independent of the program under test.

Terms are modelled here as nested tuples: a variable is a str, a product
is a 2-tuple (left, right).  The program only ever receives the rendered
text, in the syntax `termsep.terms.parse_term` reads.
"""

from __future__ import annotations

import itertools
import math
import random

SWEEP_VARIABLES = "xyz"
SWEEP_MAX_LEAVES = 4
SWEEP_TERMS = 471  # sum over n=1..4 leaves of Catalan(n-1) * 3**n
SWEEP_PAIRS = SWEEP_TERMS * (SWEEP_TERMS - 1) // 2  # 110,685


def render(t) -> str:
    """Text form with the outermost parentheses omitted."""
    if isinstance(t, str):
        return t
    return f"{_inner(t[0])}*{_inner(t[1])}"


def _inner(t) -> str:
    if isinstance(t, str):
        return t
    return f"({_inner(t[0])}*{_inner(t[1])})"


def shapes(leaves: int):
    """Every binary tree with the given number of leaves (None is a leaf)."""
    if leaves == 1:
        yield None
        return
    for k in range(1, leaves):
        for left in shapes(k):
            for right in shapes(leaves - k):
                yield (left, right)


def fill(shape, names):
    """Label the leaves of a shape left to right from the iterator names."""
    if shape is None:
        return next(names)
    left = fill(shape[0], names)
    return (left, fill(shape[1], names))


def sweep_universe() -> list:
    """All terms with at most four leaves over x, y, z."""
    out = []
    for leaves in range(1, SWEEP_MAX_LEAVES + 1):
        for shape in shapes(leaves):
            for names in itertools.product(SWEEP_VARIABLES, repeat=leaves):
                out.append(fill(shape, iter(names)))
    return out


def unrank_pair(index: int, n: int) -> tuple[int, int]:
    """The index-th pair (i, j), i < j, in row-major order over n items."""
    # rows i hold n-1-i pairs; invert the count of pairs before row i
    i = n - 2 - int((math.isqrt(4 * n * (n - 1) - 8 * index - 7) - 1) // 2)
    before = i * (2 * n - i - 1) // 2
    return i, i + 1 + index - before


def sweep_order(seed: int) -> list[int]:
    """A seeded permutation of the pair indices of the universe."""
    order = list(range(SWEEP_PAIRS))
    random.Random(seed).shuffle(order)
    return order


def ordered_terms(k: int) -> list:
    """All bracketings of x1*...*xk, each once."""
    return [fill(shape, iter(f"x{i}" for i in range(1, k + 1))) for shape in shapes(k)]


# --- large pairs ------------------------------------------------------------

SPLIT_LEAVES = (400, 700, 1000)
CHAIN_LINKS = (12, 14, 16)
COMB_DEPTHS = (64, 80, 96)
SPLIT_NAMES = tuple(f"v{i}" for i in range(16))


def random_split(rng: random.Random, leaves: int, names) -> object:
    """Random binary tree: at each node the leaf count splits uniformly
    within its middle half, which keeps the depth, and so the width of the
    cover certificate, near log2(leaves)."""
    if leaves == 1:
        return rng.choice(names)
    quarter = max(1, leaves // 4)
    k = rng.randint(quarter, leaves - quarter)
    left = random_split(rng, k, names)
    return (left, random_split(rng, leaves - k, names))


def split_pair(rng: random.Random, leaves: int):
    return random_split(rng, leaves, SPLIT_NAMES), random_split(rng, leaves, SPLIT_NAMES)


def chain_pair(rng: random.Random, links: int):
    """s = a1*(a2*(...*(an*y))) against t = (a0*a0)*((a1*a1)*(...*z)).

    Unifiable with a_i bound to a term of 2**i leaves; the seed only picks
    the variable names.
    """
    a = [f"{rng.choice('abcdefgh')}{i}" for i in range(links + 1)]
    s, t = "y", "z"
    for i in range(links, 0, -1):
        s = (a[i], s)
    for i in range(links - 1, -1, -1):
        t = ((a[i], a[i]), t)
    return s, t


def comb_pair(rng: random.Random, depth: int):
    """A left comb of the given depth over x0, y, z against x0*(3 leaves).

    x0 is the only shared variable, so its cover is the only one, and the
    certificate width equals the depth.
    """
    s = "x0"
    for _ in range(depth):
        s = (s, rng.choice("yz"))
    return s, ("x0", random_split(rng, 3, ("w1", "w2", "w3")))


def large_batch(seed: int, index: int) -> list[tuple[str, object, object]]:
    """One pair of each kind and size, as (kind, s, t); seeded by (seed, index)."""
    rng = random.Random(seed * 1_000_003 + index)
    batch = [(f"split{n}", *split_pair(rng, n)) for n in SPLIT_LEAVES]
    batch += [(f"chain{n}", *chain_pair(rng, n)) for n in CHAIN_LINKS]
    batch += [(f"comb{n}", *comb_pair(rng, n)) for n in COMB_DEPTHS]
    return batch
