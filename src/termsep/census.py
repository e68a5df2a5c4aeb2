"""Exhaustive census of 3-antiassociative Cayley tables of small order.

A table of order n is a list of n rows, each one of the n^n functions
g: {0..n-1} -> {0..n-1}, with row a the map b -> a*b.  Antiassociativity,
(a*b)*c != a*(b*c) for all a, b, c, is one rule per pair (a, b): the row
of a*b differs at every column from row_a composed with row_b.

Rows are picked in order.  Every unpicked row keeps a domain, a Python int
with one bit per candidate row.  Picking row k ANDs into the domain of
each later row j a mask for every rule whose rows, apart from j, are now
all picked: rows differing everywhere from a composition, rows whose
values at some columns avoid a set, and for the rules where row j's own
values say which row is a*b, "g(b) != v or ..." for each value v.  The
masks come from per-column bitmasks and from whole tables over every pair
of rows (compositions and composition masks), built once per n and per
process.

The rules that picking row k decides for row j fall into those among rows
k and j alone, which depend on row k's pick only and are looked up in the
table alone[k][j] (1,536 masks at n = 4), and those that also read the
products k*b and b*k of an earlier row b, one pair of rows at a time.
The last row is never enumerated: its domain's popcount is the number of
completions.  For each candidate p of row n - 2 the search carries down
the mask that the rules among p and the rows picked so far allow for row
n - 1, starting from alone[n-2][n-1] and ANDing in the rules with each
row as it is picked.  So once row n - 3 is picked, each candidate p is
counted inline, as the popcount of the last row's domain, p's carried
mask and the rules between p and row n - 3: no call and no copy per leaf.

Relabelling by a permutation s that fixes 0 maps the tables whose first
row is f one to one onto those whose first row is s o f o s^-1, so the
count runs once per orbit of first rows (52 at n = 4, of 256) and is
weighted by the orbit's size.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from dataclasses import dataclass

from termsep.cayley import CayleyGroupoid, is_k_antiassociative


@dataclass(frozen=True)
class CensusReport:
    n: int
    total_tables: int
    antiassociative_count: int
    literally_deranged_count: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "total_tables": self.total_tables,
            "antiassociative_count": self.antiassociative_count,
            "literally_deranged_count": self.literally_deranged_count,
            "elapsed": self.elapsed,
        }


def census_unpruned(n: int) -> int:
    """Reference count, every table brute-forced by cayley; n <= 3 only."""
    if n > 3:
        raise ValueError("unpruned enumeration is for n <= 3")
    tables = itertools.product(itertools.product(range(n), repeat=n), repeat=n)
    return sum(is_k_antiassociative(CayleyGroupoid(t), 3).antiassociative for t in tables)


def literally_deranged_tables(n: int) -> set[tuple[int, ...]]:
    """Tables of the form x*y = f(x) or x*y = f(y), f fixpoint-free."""
    out = set()
    choices = [[v for v in range(n) if v != i] for i in range(n)]
    for f in itertools.product(*choices):
        out.add(tuple(f[x] for x in range(n) for _ in range(n)))
        out.add(tuple(f[y] for _ in range(n) for y in range(n)))
    return out


@functools.cache
def _literally_deranged_count(n: int) -> int:
    return len(literally_deranged_tables(n))


def _masks_by_row(columns, full: int) -> list[int]:
    """For every row g, in itertools.product order, the AND over columns c
    of columns[c][g(c)]: one running AND per prefix, a column at a time."""
    level = [full]
    for column in columns:
        level = [p & m for p in level for m in column]
    return level


class _RowTables:
    """Bitmasks over the n^n rows of order n, indexed as itertools.product
    lists them; bit i of a mask stands for row i."""

    def __init__(self, n: int):
        self.n = n
        self.rows = rows = list(itertools.product(range(n), repeat=n))
        self.full = full = (1 << len(rows)) - 1
        # eq[c][v]: rows g with g(c) == v
        self.eq = eq = [[0] * n for _ in range(n)]
        for i, g in enumerate(rows):
            for c, v in enumerate(g):
                eq[c][v] |= 1 << i
        # outside[c][S]: rows g with g(c) outside the value set S, a bitset
        self.outside = outside = [
            [full ^ functools.reduce(int.__or__, (eq[c][v] for v in range(n) if s >> v & 1), 0)
             for s in range(1 << n)]
            for c in range(n)
        ]
        # apart[c][d]: rows g with g(c) != g(d)
        apart = [
            [0 if c == d else functools.reduce(
                int.__or__, (eq[c][v] & outside[d][1 << v] for v in range(n)))
             for d in range(n)]
            for c in range(n)
        ]

        def every_column(masks):
            return functools.reduce(int.__and__, masks, full)

        # differ[i]: rows differing from row i at every column
        self.differ = [every_column(outside[c][1 << v] for c, v in enumerate(g)) for g in rows]
        # unhinged[i]: rows h with h(c) != h(g(c)) for every c, g row i
        self.unhinged = [every_column(apart[c][v] for c, v in enumerate(g)) for g in rows]
        # fixed_free[i]: rows h whose values avoid every fixed point of row i
        self.fixed_free = []
        # preimages[i][v]: the columns d with g(d) == v, as a bitset
        self.preimages = []
        for g in rows:
            fixed = sum(1 << c for c, v in enumerate(g) if c == v)
            self.fixed_free.append(every_column(outside[c][fixed] for c in range(n)))
            pre = [0] * n
            for d, v in enumerate(g):
                pre[v] |= 1 << d
            self.preimages.append(pre)
        # compose[i][j]: index of row i o row j, a running index a column at a time
        self.compose = []
        for f in rows:
            level = [0]
            for _ in range(n):
                level = [p * n + v for p in level for v in f]
            self.compose.append(level)
        # after[i][j]: rows g with g o row i differing from row j at every column
        # before[i][j]: rows g with row i o g differing from row j at every column
        intern = {}.setdefault  # equal masks share one int: 3,382 of 131,072 at n = 4
        self.after, self.before = [], []
        for f, pre in zip(rows, self.preimages):
            after = _masks_by_row([[outside[d][1 << v] for v in range(n)] for d in f], full)
            before = _masks_by_row(
                [[outside[c][pre[v]] for v in range(n)] for c in range(n)], full
            )
            self.after.append(list(map(intern, after, after)))
            self.before.append(list(map(intern, before, before)))
        # squares_differ[i]: rows g with g o g differing from row i at every column
        roots: dict[int, int] = {}  # roots[r]: rows g with g o g == row r
        for g, composed in enumerate(self.compose):
            roots[composed[g]] = roots.get(composed[g], 0) | 1 << g
        self.squares_differ = [
            sum(found for r, found in roots.items() if differ >> r & 1) for differ in self.differ
        ]
        # alone[k][j][p]: rows allowed for row j by the rules among rows k
        # and j alone, when row k is row p; 1,536 masks at n = 4
        self.alone = [
            [[self._alone(k, j, p) for p in range(len(rows))] if j > k else None
             for j in range(n)]
            for k in range(n)
        ]
        self.orbits = self._first_row_orbits()

    def index(self, g) -> int:
        i = 0
        for v in g:
            i = i * self.n + v
        return i

    def _first_row_orbits(self) -> list[tuple[tuple[int, ...], int]]:
        """(least member, size) of each orbit of first rows under s o f o s^-1,
        s running over the permutations that fix 0."""
        n = self.n
        orbits: dict[tuple[int, ...], int] = {}
        for f in self.rows:
            members = set()
            for tail in itertools.permutations(range(1, n)):
                s = (0,) + tail
                inverse = [0] * n
                for x, y in enumerate(s):
                    inverse[y] = x
                members.add(tuple(s[f[inverse[x]]] for x in range(n)))
            orbits[min(members)] = len(members)
        return sorted(orbits.items())

    def _alone(self, k: int, j: int, pk: int) -> int:
        """Rows allowed for row j by the rules among rows k < j alone, when
        row k is row pk."""
        full, eq, g = self.full, self.eq, self.rows[pk]
        # j*k == j: j*c against j*(k*c), and j*j == k: k*c against j*(j*c)
        mask = ((full ^ eq[k][j]) | self.unhinged[pk]) & (
            (full ^ eq[j][k]) | self.squares_differ[pk]
        )
        # k*j == j: j*c against k*(j*c)
        if g[j] == j:
            mask &= self.fixed_free[pk]
        # k*k == j: j*c against k*(k*c)
        if g[k] == j:
            mask &= self.differ[self.compose[pk][pk]]
        # k*j == k: k*c against k*(j*c)
        if g[j] == k:
            mask &= self.before[pk][pk]
        # j*k == k: k*c against j*(k*c)
        return mask & ((full ^ eq[k][k]) | self.after[pk][pk])

    def between(self, pk: int, k: int, pb: int, b: int, j: int) -> int:
        """Rows allowed for row j by the rules that read the products k*b
        and b*k, when row k is row pk and row b is row pb, b < k < j."""
        full, eq, gk, gb = self.full, self.eq, self.rows[pk], self.rows[pb]
        # j*k == b: b*c against j*(k*c), and j*b == k: k*c against j*(b*c)
        mask = ((full ^ eq[k][b]) | self.after[pk][pb]) & (
            (full ^ eq[b][k]) | self.after[pb][pk]
        )
        # k*b == j: j*c against k*(b*c), and b*k == j: j*c against b*(k*c)
        if gk[b] == j:
            mask &= self.differ[self.compose[pk][pb]]
        if gb[k] == j:
            mask &= self.differ[self.compose[pb][pk]]
        # k*j == b: b*c against k*(j*c), and b*j == k: k*c against b*(j*c)
        if gk[j] == b:
            mask &= self.before[pk][pb]
        if gb[j] == k:
            mask &= self.before[pb][pk]
        return mask

    def allowed(self, picked: list[int], k: int, j: int) -> int:
        """Rows allowed for row j by the rules that picking row k has made
        decidable: those whose rows other than j are all among rows 0..k
        and include row k.  picked[a] is the index of row a, for a <= k."""
        pk = picked[k]
        mask = self.alone[k][j][pk]
        for b in range(k):
            mask &= self.between(pk, k, picked[b], b, j)
        return mask

    def carry(self, carried, candidates: int, picked: list[int], k: int) -> dict[int, int]:
        """carried[p] ANDed with the rules between row n - 2, as row p, and
        row k, for row n - 1; for each p in the bitset candidates."""
        between, pk, last = self.between, picked[k], self.n - 1
        out = {}
        while candidates:
            low = candidates & -candidates
            p = low.bit_length() - 1
            out[p] = carried[p] & between(p, last - 1, pk, k, last)
            candidates ^= low
        return out

    def count_below(self, picked: list[int], domains: list[int], carried, k: int) -> int:
        """Completions once rows 0..k are picked, with the given domains
        for the later rows.  carried[p], for each candidate p of row n - 2,
        holds the rows that the rules among p and rows 0..k-1 allow for
        row n - 1."""
        n = self.n
        last = n - 1
        narrowed = domains[:]
        for j in range(k + 1, n):
            narrowed[j] &= self.allowed(picked, k, j)
            if not narrowed[j]:
                return 0
        if k + 1 == last:  # n = 2
            return narrowed[last].bit_count()
        if k + 2 == last:
            # row m = n - 2 is next: count each of its candidates p inline as
            # narrowed[last] & carried[p] & between(p, m, q, k, last), with
            # the parts that depend on row k alone taken out of the loop
            m, q, rows = last - 1, picked[k], self.rows
            after, before, compose, differ = self.after, self.before, self.compose, self.differ
            after_q, before_q, compose_q = after[q], before[q], compose[q]
            off_mk, off_km = self.full ^ self.eq[m][k], self.full ^ self.eq[k][m]
            qm_is_last, q_last_is_m = rows[q][m] == last, rows[q][last] == m
            final = narrowed[last]
            total = 0
            left = narrowed[m]
            while left:
                low = left & -left
                p = low.bit_length() - 1
                mask = final & carried[p] & (off_mk | after[p][q]) & (off_km | after_q[p])
                g = rows[p]
                if g[k] == last:
                    mask &= differ[compose[p][q]]
                if qm_is_last:
                    mask &= differ[compose_q[p]]
                if g[last] == k:
                    mask &= before[p][q]
                if q_last_is_m:
                    mask &= before_q[p]
                total += mask.bit_count()
                left ^= low
            return total
        carried = self.carry(carried, narrowed[last - 1], picked, k)
        total = 0
        left = narrowed[k + 1]
        while left:
            low = left & -left
            picked[k + 1] = low.bit_length() - 1
            total += self.count_below(picked, narrowed, carried, k + 1)
            left ^= low
        return total


@functools.cache
def _row_tables(n: int) -> _RowTables:
    return _RowTables(n)


def _count_first_row(n: int, first: tuple[int, ...]) -> int:
    """Antiassociative tables whose first row is the given one."""
    if first[0] == 0:  # (0*0)*0 = 0*(0*0)
        return 0
    tables = _row_tables(n)
    picked = [tables.index(first)] + [0] * (n - 1)
    domains = [tables.full ^ tables.eq[j][j] for j in range(n)]  # j*j != j
    carried = tables.alone[n - 2][n - 1]  # rules among rows n - 2 and n - 1 alone
    return tables.count_below(picked, domains, carried, 0)


def census_pruned(n: int, workers: int = 1, progress=None) -> int:
    """Row-wise count with bitmask domains, one first row per orbit, in
    orbit order; progress sees the running total after each orbit.

    workers is accepted, so that callers which still pass it keep
    working, and ignored: the census runs in the calling process, since
    at n <= 4 the whole count takes a few tens of milliseconds, too little
    for a second process to pay for its start."""
    if n not in (2, 3, 4):
        raise ValueError("census supports n in {2, 3, 4}")
    orbits = _row_tables(n).orbits
    total = 0
    for i, (first, size) in enumerate(orbits):
        total += _count_first_row(n, first) * size
        if progress:
            progress(i + 1, len(orbits), total)
    return total


def census(n: int, workers: int = 1, long_run: bool = False, progress=None) -> CensusReport:
    """The census of order n.  workers must be at least 1 and has no other
    effect: see census_pruned."""
    if n == 4 and not long_run:
        raise ValueError("n=4 counts among 4^16 tables; pass long_run=True to confirm")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.monotonic()
    count = census_pruned(n, workers=workers, progress=progress)
    elapsed = time.monotonic() - start
    return CensusReport(
        n=n,
        total_tables=n ** (n * n),
        antiassociative_count=count,
        literally_deranged_count=_literally_deranged_count(n),
        elapsed=elapsed,
    )


def stderr_progress(done: int, total: int, count: int):
    print(f"census: {done}/{total} first-row orbits, {count} so far", file=sys.stderr)
