"""The entry-wise census count, kept as the reference for the row-wise one.

count_subtree fills a table entry by entry in row-major order after a
fixed prefix, and a branch dies as soon as some triple (a,b,c) has all
five needed entries fixed with (a*b)*c = a*(b*c).  It visits every
antiassociative completion one by one.
"""

from __future__ import annotations

import itertools


def candidate_triples(n: int):
    """For each entry index, triples worth re-checking after assigning it.

    Entry (x,y) can be any of the four lookups of triple (a,b,c): the
    products (a,b) or (b,c) directly, or one of the value-dependent
    lookups, which have column c == y or row a == x.
    """
    per_entry = [[] for _ in range(n * n)]
    for e in range(n * n):
        x, y = divmod(e, n)
        seen = set()
        for a, b, c in itertools.product(range(n), repeat=3):
            if (a, b) == (x, y) or (b, c) == (x, y) or c == y or a == x:
                if (a, b, c) not in seen:
                    seen.add((a, b, c))
                    per_entry[e].append((a * n + b, b * n + c, a, c))
    return per_entry


def violated(table, n, triples) -> bool:
    """Any fully-determined triple with (a*b)*c == a*(b*c)?"""
    for ab_idx, bc_idx, a, c in triples:
        ab = table[ab_idx]
        if ab < 0:
            continue
        bc = table[bc_idx]
        if bc < 0:
            continue
        lhs = table[ab * n + c]
        if lhs < 0:
            continue
        rhs = table[a * n + bc]
        if rhs < 0:
            continue
        if lhs == rhs:
            return True
    return False


def count_subtree(n: int, prefix: tuple[int, ...]) -> int:
    """Antiassociative completions of the given row-major prefix."""
    per_entry = candidate_triples(n)
    size = n * n
    table = [-1] * size
    for i, v in enumerate(prefix):
        table[i] = v
        if violated(table, n, per_entry[i]):
            return 0
    count = 0
    start = len(prefix)

    def descend(pos: int):
        nonlocal count
        if pos == size:
            count += 1
            return
        triples = per_entry[pos]
        for v in range(n):
            table[pos] = v
            if not violated(table, n, triples):
                descend(pos + 1)
        table[pos] = -1

    descend(start)
    return count


def reference_allowed(tables, picked, k, j):
    """Rows allowed for row j by the rules that picking row k has made
    decidable, rule by rule over the ordered pairs of rows 0..k that include
    row k; the row-wise count's allowed before it looked up the rules
    between two rows."""
    rows, eq, full = tables.rows, tables.eq, tables.full
    known = [rows[p] for p in picked[: k + 1]]
    pk = picked[k]
    # j*k == j: j*c against j*(k*c), and j*j == k: k*c against j*(j*c)
    mask = ((full ^ eq[k][j]) | tables.unhinged[pk]) & (
        (full ^ eq[j][k]) | tables.squares_differ[pk]
    )
    # k*j == j: j*c against k*(j*c)
    if known[k][j] == j:
        mask &= tables.fixed_free[pk]
    for a, b in [(k, b) for b in range(k + 1)] + [(a, k) for a in range(k)]:
        pa, pb = picked[a], picked[b]
        # a*b == j: j*c against a*(b*c)
        if known[a][b] == j:
            mask &= tables.differ[tables.compose[pa][pb]]
        # a*j == b: b*c against a*(j*c)
        if known[a][j] == b:
            mask &= tables.before[pa][pb]
        # j*a == b: b*c against j*(a*c)
        mask &= (full ^ eq[a][b]) | tables.after[pa][pb]
    return mask
