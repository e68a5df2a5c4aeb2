import itertools
import types

import pytest

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
