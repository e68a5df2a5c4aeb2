import functools
import itertools
import os
import random
import tracemalloc
import types

import pytest

import termsep.census as census_module
from census_reference import count_subtree, reference_allowed
from termsep.cayley import CayleyGroupoid, is_k_antiassociative
from termsep.census import (
    census,
    census_pruned,
    census_unpruned,
    literally_deranged_tables,
)


class TestSmallCounts:
    def test_n2(self):
        report = census(2)
        assert report.antiassociative_count == 2
        assert report.total_tables == 16

    def test_n3(self):
        report = census(3)
        assert report.antiassociative_count == 52
        assert report.total_tables == 3**9

    @pytest.mark.parametrize("n", (2, 3))
    def test_pruned_matches_unpruned(self, n):
        assert census_pruned(n) == census_unpruned(n)

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_worker_count_is_irrelevant(self, workers):
        assert census_pruned(3, workers=workers) == 52


class TestRowWiseCount:
    """The row-wise count of one first row against the entry-wise reference."""

    @pytest.mark.parametrize("n", (2, 3))
    def test_every_first_row_matches_reference(self, n):
        for first in itertools.product(range(n), repeat=n):
            assert census_module._count_first_row(n, first) == count_subtree(n, first), first

    def test_every_orbit_of_order_4_matches_reference(self):
        for first, _ in census_module._row_tables(4).orbits:
            assert census_module._count_first_row(4, first) == count_subtree(4, first), first

    def test_seeded_first_rows_of_order_4_match_reference(self):
        rng = random.Random(20141)
        firsts = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(12)]
        # from the two orbits with the most completions, 9,535 and 8,809
        for first in firsts + [(1, 1, 1, 1), (2, 2, 1, 1)]:
            assert census_module._count_first_row(4, first) == count_subtree(4, first), first

    @staticmethod
    def conjugates(first):
        """s o first o s^-1 for every permutation s of the labels fixing 0."""
        n = len(first)
        out = set()
        for tail in itertools.permutations(range(1, n)):
            s = (0,) + tail
            inverse = {y: x for x, y in enumerate(s)}
            out.add(tuple(s[first[inverse[x]]] for x in range(n)))
        return out

    @pytest.mark.parametrize("n,orbits", [(2, 4), (3, 15), (4, 52)])
    def test_orbits_partition_the_first_rows(self, n, orbits):
        listed = census_module._row_tables(n).orbits
        assert len(listed) == orbits
        assert sum(size for _, size in listed) == n**n
        members = [self.conjugates(first) for first, _ in listed]
        assert [len(m) for m in members] == [size for _, size in listed]
        assert set().union(*members) == set(itertools.product(range(n), repeat=n))

    @pytest.mark.parametrize("n", (3, 4))
    def test_orbit_members_have_one_count(self, n):
        for first, _ in census_module._row_tables(n).orbits:
            counts = {census_module._count_first_row(n, f) for f in self.conjugates(first)}
            assert len(counts) == 1, first


def reference_compose(tables, i, j):
    """Index of row i o row j."""
    f = tables.rows[i]
    return tables.index(f[x] for x in tables.rows[j])


def reference_after(tables, i, j):
    """Rows g with g o row i differing from row j at every column."""
    return functools.reduce(
        int.__and__,
        (tables.outside[d][1 << v] for d, v in zip(tables.rows[i], tables.rows[j])),
        tables.full,
    )


def reference_before(tables, i, j):
    """Rows g with row i o g differing from row j at every column."""
    pre = tables.preimages[i]
    return functools.reduce(
        int.__and__,
        (tables.outside[c][pre[v]] for c, v in enumerate(tables.rows[j])),
        tables.full,
    )


def reference_squares_differ(tables, i):
    """Rows g with g o g differing from row i at every column."""
    differ = tables.differ[i]
    return sum(
        1 << g for g in range(len(tables.rows)) if differ >> reference_compose(tables, g, g) & 1
    )


class TestPairTables:
    """The whole pair tables against their definitions, entry by entry."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_every_entry_matches_its_definition(self, n):
        tables = census_module._RowTables(n)
        size = n**n
        assert len(tables.compose) == len(tables.after) == len(tables.before) == size
        for i in range(size):
            assert tables.squares_differ[i] == reference_squares_differ(tables, i), i
            compose, after, before = tables.compose[i], tables.after[i], tables.before[i]
            assert len(compose) == len(after) == len(before) == size
            for j in range(size):
                assert compose[j] == reference_compose(tables, i, j), (i, j)
                assert after[j] == reference_after(tables, i, j), (i, j)
                assert before[j] == reference_before(tables, i, j), (i, j)

    def test_equal_masks_share_one_int(self):
        tables = census_module._row_tables(4)
        assert len({id(m) for row in tables.after for m in row}) == 2513
        assert len({id(m) for row in tables.before for m in row}) == 1990

    def test_order_4_tables_stay_small(self):
        tracemalloc.start()
        try:
            census_module._RowTables(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


def reference_alone(tables, k, j, p):
    """Rows h allowed for row j when row k is row p, by every rule (x, y)
    with x and y among rows k and j, whose product z is row k or row j,
    and whose rows x, y and z include both: z*c != x*(y*c) at every c."""
    mask = 0
    for i, h in enumerate(tables.rows):
        row = {k: tables.rows[p], j: h}
        if all(
            row[z][c] != row[x][row[y][c]]
            for x in (k, j)
            for y in (k, j)
            for z in [row[x][y]]
            if z in row and {x, y, z} == {k, j}
            for c in range(tables.n)
        ):
            mask |= 1 << i
    return mask


def seeded_prefixes(tables, seed, count):
    """count picks of rows 0..n-2, each drawn from all rows: most break
    some rule, and allowed must agree with the reference on those too."""
    rng = random.Random(seed)
    size = len(tables.rows)
    return [[rng.randrange(size) for _ in range(tables.n - 1)] for _ in range(count)]


class TestRulesBetweenRows:
    """alone, allowed and the carried masks of the last row against the
    rule-by-rule reference."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_every_alone_entry_matches_its_definition(self, n):
        tables = census_module._RowTables(n)
        for k in range(n):
            for j in range(k + 1, n):
                assert len(tables.alone[k][j]) == n**n
                for p, mask in enumerate(tables.alone[k][j]):
                    assert mask == reference_alone(tables, k, j, p), (k, j, p)

    @pytest.mark.parametrize("n", (2, 3))
    def test_allowed_on_every_prefix(self, n):
        """Every prefix of rows 0..k, so also every one the count visits."""
        tables = census_module._row_tables(n)
        for k in range(n - 1):
            for picked in itertools.product(range(n**n), repeat=k + 1):
                for j in range(k + 1, n):
                    assert tables.allowed(list(picked), k, j) == reference_allowed(
                        tables, picked, k, j
                    ), (picked, j)

    def test_allowed_on_seeded_order_4_prefixes(self):
        tables = census_module._row_tables(4)
        for picked in seeded_prefixes(tables, 20142, 400):
            for k in range(3):
                for j in range(k + 1, 4):
                    assert tables.allowed(picked, k, j) == reference_allowed(
                        tables, picked, k, j
                    ), (picked, k, j)

    def test_carried_last_row_masks_on_seeded_order_4_prefixes(self):
        tables = census_module._row_tables(4)
        for picked in seeded_prefixes(tables, 20143, 40):
            carried = tables.alone[2][3]
            for k in range(2):
                carried = tables.carry(carried, tables.full, picked, k)
            for p, mask in carried.items():
                want = reference_allowed(tables, picked[:2] + [p], 2, 3)
                assert mask == want, (picked, p)

    def test_counted_leaves_on_seeded_order_4_prefixes(self):
        """count_below one level above the leaves, with one candidate p for
        row 2 and a random domain for row 3: the inline count of p."""
        tables = census_module._row_tables(4)
        rng = random.Random(20144)
        for picked in seeded_prefixes(tables, 20145, 60):
            carried = tables.carry(tables.alone[2][3], tables.full, picked, 0)
            for p in rng.sample(range(256), 32):
                domains = [0, 0, 1 << p, rng.getrandbits(256)]
                want = (
                    domains[3]
                    & reference_allowed(tables, picked[:2], 1, 3)
                    & reference_allowed(tables, picked[:2] + [p], 2, 3)
                ).bit_count()
                if not reference_allowed(tables, picked[:2], 1, 2) >> p & 1:
                    want = 0
                got = tables.count_below(picked[:2] + [0, 0], domains, carried, 1)
                assert got == want, (picked, p)


class TestWorkers:
    """workers is accepted and changes nothing: every census counts in
    the calling process."""

    @pytest.mark.parametrize("workers", (0, -1))
    def test_fewer_than_one_worker_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            census(2, workers=workers)

    def test_progress_counts_orbits(self):
        calls = []
        census(3, progress=lambda done, total, count: calls.append((done, total, count)))
        assert [c[:2] for c in calls] == [(i, 15) for i in range(1, 16)]
        assert calls[-1][2] == 52

    def test_progress_from_a_pool_counts_orbits_in_order(self):
        calls = {1: [], 2: [], 4: []}
        for workers, seen in calls.items():
            total = census_pruned(
                3, workers=workers, progress=lambda *call, seen=seen: seen.append(call)
            )
            assert total == 52
        assert [c[:2] for c in calls[2]] == [(i, 15) for i in range(1, 16)]
        # the running totals of the orbits in order
        assert calls[2] == calls[1]
        assert calls[4] == calls[1]
        assert calls[2][-1][2] == 52

    def test_counts_without_forking(self, monkeypatch):
        def no_fork():
            raise OSError("planted: no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        assert census(4, workers=2, long_run=True).antiassociative_count == 421560


class TestLiterallyDeranged:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 16), (4, 162)])
    def test_count_formula(self, n, count):
        tables = literally_deranged_tables(n)
        assert len(tables) == count == 2 * (n - 1) ** n

    @pytest.mark.parametrize("n", (2, 3))
    def test_all_are_antiassociative(self, n):
        for flat in literally_deranged_tables(n):
            table = CayleyGroupoid(
                tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
            )
            assert is_k_antiassociative(table, 3).antiassociative

    def test_subset_of_census_winners(self):
        n = 2
        winners = set()
        for flat in itertools.product(range(n), repeat=n * n):
            table = CayleyGroupoid(
                tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
            )
            if is_k_antiassociative(table, 3).antiassociative:
                winners.add(flat)
        assert literally_deranged_tables(n) <= winners
        assert len(winners) == 2


class TestGuards:
    def test_n4_needs_opt_in(self):
        with pytest.raises(ValueError, match="long"):
            census(4)

    @pytest.mark.parametrize("n", (1, 5))
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            census(n)

    @pytest.mark.parametrize("n", (0, 1, 5))
    def test_pruned_out_of_range_builds_no_tables(self, n):
        built = census_module._row_tables.cache_info().currsize
        with pytest.raises(ValueError, match="census supports"):
            census_pruned(n)
        assert census_module._row_tables.cache_info().currsize == built


class TestOrderFour:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_n4_count(self, workers):
        report = census(4, workers=workers, long_run=True)
        assert report.antiassociative_count == 421560


@pytest.mark.long
class TestFullCensus:
    def test_n4_count(self):
        report = census(4, workers=4, long_run=True)
        assert report.antiassociative_count == 421560
        assert report.total_tables == 4**16


def test_package_keeps_the_census_module():
    import termsep.census as module

    assert isinstance(module, types.ModuleType)
    assert module.census_pruned(2) == 2
