import itertools
import math

from termsep.terms import parse_term, render_term

from perfbench import gen


def test_universe_counts():
    universe = gen.sweep_universe()
    assert len(universe) == gen.SWEEP_TERMS == 471
    assert len(set(universe)) == 471
    assert len(universe) * (len(universe) - 1) // 2 == gen.SWEEP_PAIRS == 110_685
    assert max(len(gen.render(t).replace("(", "").replace(")", "").replace("*", "")) for t in universe) == 4


def test_unrank_pair_matches_combinations():
    for n in (2, 3, 30):
        assert [gen.unrank_pair(k, n) for k in range(n * (n - 1) // 2)] == list(
            itertools.combinations(range(n), 2)
        )
    n = gen.SWEEP_TERMS
    assert gen.unrank_pair(0, n) == (0, 1)
    assert gen.unrank_pair(gen.SWEEP_PAIRS - 1, n) == (n - 2, n - 1)


def test_rendered_terms_parse_back():
    for t in gen.sweep_universe()[::7] + [s for _, s, _ in gen.large_batch(0, 0)]:
        text = gen.render(t)
        assert render_term(parse_term(text)) == text


def test_sweep_order_is_seeded():
    assert gen.sweep_order(1)[:100] == gen.sweep_order(1)[:100]
    assert gen.sweep_order(1)[:100] != gen.sweep_order(2)[:100]
    assert sorted(gen.sweep_order(3)) == list(range(gen.SWEEP_PAIRS))


def test_large_batch_is_seeded():
    assert gen.large_batch(5, 1) == gen.large_batch(5, 1)
    assert gen.large_batch(5, 1) != gen.large_batch(6, 1)
    assert gen.large_batch(5, 1) != gen.large_batch(5, 2)
    kinds = [kind for kind, _, _ in gen.large_batch(5, 1)]
    assert kinds == [f"split{n}" for n in gen.SPLIT_LEAVES] + [
        f"chain{n}" for n in gen.CHAIN_LINKS
    ] + [f"comb{n}" for n in gen.COMB_DEPTHS]


def test_ordered_terms_are_catalan():
    for k in range(1, 7):
        assert len(set(gen.ordered_terms(k))) == math.comb(2 * (k - 1), k - 1) // k
