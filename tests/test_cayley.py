import gc
import itertools
import random

import pytest

from termsep import cayley
from termsep.cayley import (
    BudgetExceededError,
    CayleyGroupoid,
    SeparationVerdict,
    closed_subsets,
    deranged_groupoid,
    eval_cayley,
    is_k_antiassociative,
    product_groupoid,
    restrict,
    separates_exhaustive,
)
from termsep.terms import enumerate_ordered_terms, parse_term, var_key, variables

Z2_LEFT = deranged_groupoid(2, [1, 0], "LEFT")       # x*y = (x+1) mod 2
Z3_RIGHT = deranged_groupoid(3, [1, 2, 0], "RIGHT")  # x*y = (y+1) mod 3


class TestEval:
    def test_leaf(self):
        assert eval_cayley(Z2_LEFT, parse_term("x"), {"x": 1}) == 1

    def test_left_deranged_depth_law(self):
        t = parse_term("((w*x)*y)*z")
        for w, x, y, z in itertools.product(range(2), repeat=4):
            env = {"w": w, "x": x, "y": y, "z": z}
            assert eval_cayley(Z2_LEFT, t, env) == (w + 3) % 2

    def test_right_deranged_depth_law(self):
        t = parse_term("x*(y*(z*u))")
        for env in itertools.product(range(3), repeat=4):
            env = dict(zip("xyzu", env))
            assert eval_cayley(Z3_RIGHT, t, env) == (env["u"] + 3) % 3

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            eval_cayley(Z2_LEFT, parse_term("x*y"), {"x": 0})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eval_cayley(Z2_LEFT, parse_term("x"), {"x": 5})


class TestDeranged:
    def test_left_table(self):
        assert Z2_LEFT.table == ((1, 1), (0, 0))

    def test_right_table(self):
        assert Z3_RIGHT.table == ((1, 2, 0), (1, 2, 0), (1, 2, 0))

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            deranged_groupoid(3, [0, 2, 1], "LEFT")

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            deranged_groupoid(1, [0], "LEFT")

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("side", ["LEFT", "RIGHT"])
    def test_always_3_antiassociative(self, n, side):
        choices = [[v for v in range(n) if v != i] for i in range(n)]
        for f in itertools.product(*choices):
            report = is_k_antiassociative(deranged_groupoid(n, f, side), 3)
            assert report.antiassociative


class TestProduct:
    def test_encoding_with_trivial_factor(self):
        trivial = CayleyGroupoid(((0,),))
        assert product_groupoid(Z2_LEFT, trivial).table == Z2_LEFT.table

    def test_product_separates_all_five(self):
        product = product_groupoid(Z2_LEFT, Z3_RIGHT)
        assert product.n == 6
        assert is_k_antiassociative(product, 4).antiassociative

    def test_separation_lifts_to_products(self):
        rng = random.Random(7)
        pairs = list(itertools.combinations(enumerate_ordered_terms(4), 2))
        for _ in range(6):
            nH = rng.randint(2, 3)
            H = CayleyGroupoid(
                tuple(
                    tuple(rng.randrange(nH) for _ in range(nH)) for _ in range(nH)
                )
            )
            for G in (Z2_LEFT, Z3_RIGHT):
                GH = product_groupoid(G, H)
                for s, t in pairs:
                    if separates_exhaustive(G, s, t).separated:
                        assert separates_exhaustive(GH, s, t).separated


def _plain_first_counterexample(G, s, t):
    names = sorted(set(variables(s)) | set(variables(t)), key=var_key)
    for vals in itertools.product(range(G.n), repeat=len(names)):
        env = dict(zip(names, vals))
        if eval_cayley(G, s, env) == eval_cayley(G, t, env):
            return env
    return None


class TestSeparatesExhaustive:
    def test_equal_terms_zero_counterexample(self):
        t = parse_term("(x*y)*z")
        verdict = separates_exhaustive(Z2_LEFT, t, t)
        assert not verdict.separated
        assert verdict.counterexample == {"x": 0, "y": 0, "z": 0}

    def test_z2_t2_t3_not_separated(self):
        _, t2, t3, _, _ = enumerate_ordered_terms(4)
        assert not separates_exhaustive(Z2_LEFT, t2, t3).separated

    def test_counterexample_is_lexicographic_first(self):
        # rightmost variable sits at depth 2 in both terms, so the
        # right-deranged operation cannot tell them apart
        s = parse_term("x1*(x2*x3)")
        t = parse_term("(x1*x2)*(x2*x3)")
        verdict = separates_exhaustive(Z3_RIGHT, s, t)
        assert not verdict.separated
        env = verdict.counterexample
        assert eval_cayley(Z3_RIGHT, s, env) == eval_cayley(Z3_RIGHT, t, env)
        # nothing lexicographically earlier also works
        names = sorted(env)
        found = None
        for vals in itertools.product(range(3), repeat=len(names)):
            candidate = dict(zip(names, vals))
            if eval_cayley(Z3_RIGHT, s, candidate) == eval_cayley(
                Z3_RIGHT, t, candidate
            ):
                found = candidate
                break
        assert found == env

    @pytest.mark.parametrize("chunk", [1, 5, 2**13])
    def test_chunks_agree_with_plain_enumeration(self, monkeypatch, chunk):
        # chunks of a few assignments put most first hits past the first chunk
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        rng = random.Random(chunk)
        universe = enumerate_ordered_terms(4) + enumerate_ordered_terms(5)
        for _ in range(40):
            n = rng.randint(2, 4)
            G = CayleyGroupoid(
                tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            )
            s, t = rng.sample(universe, 2)
            names = sorted(set(variables(s)) | set(variables(t)), key=var_key)
            first = None
            for vals in itertools.product(range(n), repeat=len(names)):
                env = dict(zip(names, vals))
                if eval_cayley(G, s, env) == eval_cayley(G, t, env):
                    first = env
                    break
            verdict = separates_exhaustive(G, s, t)
            assert verdict.separated == (first is None)
            assert verdict.counterexample == first

    @pytest.mark.parametrize(
        "s_text, t_text",
        [
            ("x*(y*z)", "(x*y)*x"),  # z occurs in one term only
            ("y*x", "y"),  # so does x, and one term is a bare variable
            ("x*(y*y)", "(y*(y*z))*x"),  # repeated variables
            ("(x*x)*x", "x"),  # one variable, repeated
            ("x10*(x2*x10)", "x9*x2"),  # names in var_key order, not text order
        ],
    )
    @pytest.mark.parametrize("chunk", [3, 2**13])
    def test_broadcast_blocks_agree_with_plain_enumeration(
        self, monkeypatch, s_text, t_text, chunk
    ):
        # a chunk of 3 with orders of 5 and 6 cuts the last variable's range
        # into slices, so a first hit at a value of 3 or more needs the offset
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        s, t = parse_term(s_text), parse_term(t_text)
        rng = random.Random(s_text + t_text)
        groupoids = [Z3_RIGHT, product_groupoid(Z2_LEFT, Z3_RIGHT)] + [
            CayleyGroupoid(
                tuple(tuple(rng.randrange(5) for _ in range(5)) for _ in range(5))
            )
            for _ in range(30)
        ]
        last = max(set(variables(s)) | set(variables(t)), key=var_key)
        late = 0
        for G in groupoids:
            first = _plain_first_counterexample(G, s, t)
            verdict = separates_exhaustive(G, s, t)
            assert verdict.separated == (first is None)
            assert verdict.counterexample == first
            late += first is not None and first[last] >= 3
        assert late > 0

    def test_deep_term_needs_no_recursion(self):
        comb = parse_term("x")
        for _ in range(5000):
            comb = comb * parse_term("x")
        verdict = separates_exhaustive(Z2_LEFT, comb, parse_term("x"))
        # x*y = x+1 (mod 2): the comb is x + 5000 = x
        assert verdict.counterexample == {"x": 0}

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            separates_exhaustive(Z3_RIGHT, *enumerate_ordered_terms(3), budget=10)

    def test_leaves_no_reference_cycles(self):
        # a cycle would hold each chunk's arrays until the collector runs
        s, t = parse_term("x*(z*(z*x))"), parse_term("(y*z)*(x*y)")
        gc.collect()
        gc.disable()
        try:
            separates_exhaustive(Z3_RIGHT, s, t)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            SeparationVerdict(True, {"x": 0})
        with pytest.raises(ValueError):
            SeparationVerdict(False, None)


class TestAntiassociativity:
    def test_z2_fails_at_4(self):
        report = is_k_antiassociative(Z2_LEFT, 4)
        assert not report.antiassociative
        t1, t2, t3, t4, _ = enumerate_ordered_terms(4)
        # first failing pair in enumeration order: depths 3 and 1 agree mod 2
        assert report.failing_pair == (t1, t4)
        # the worked computation: t2 and t3 both come out (w+2) mod 2
        assert not separates_exhaustive(Z2_LEFT, t2, t3).separated

    def test_k_implies_j(self):
        product = product_groupoid(Z2_LEFT, Z3_RIGHT)
        assert is_k_antiassociative(product, 4).antiassociative
        assert is_k_antiassociative(product, 3).antiassociative

    def test_k_below_3_rejected(self):
        with pytest.raises(ValueError):
            is_k_antiassociative(Z2_LEFT, 2)


class TestSubgroupoids:
    def test_closed_subsets_still_separate(self):
        product = product_groupoid(Z2_LEFT, Z3_RIGHT)
        pairs = list(itertools.combinations(enumerate_ordered_terms(4), 2))
        for subset in closed_subsets(product):
            sub = restrict(product, subset)
            for s, t in pairs:
                assert separates_exhaustive(sub, s, t).separated


class TestSerialization:
    def test_csv_round_trip(self):
        text = Z3_RIGHT.to_csv()
        assert text.splitlines()[0] == "3"
        assert CayleyGroupoid.from_csv(text) == Z3_RIGHT

    def test_json_round_trip(self):
        assert CayleyGroupoid.from_json(Z2_LEFT.to_json()) == Z2_LEFT

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            CayleyGroupoid(((0, 1), (2, 0)))
