import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import dense_reference as dense
from termsep import cayley
from termsep.cayley import (
    DEFAULT_EVAL_BUDGET,
    AntiassociativityReport,
    BudgetExceededError,
    CayleyGroupoid,
    SeparationVerdict,
    affine_separations,
    deranged_groupoid,
    eval_cayley,
    is_k_antiassociative,
    product_groupoid,
    separates_exhaustive,
    separations,
)
from termsep.synth import antiassociative_certificates
from termsep.terms import Mul, Var, enumerate_ordered_terms, parse_term, var_key, variables
from termsep.vecops import VecGroupoid, affine_groupoid, to_cayley

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

    def test_deep_right_comb(self):
        # x1*(x2*(...*(x4999*x5000))), depth 4,999; it raised RecursionError
        t = Var("x5000")
        for i in range(4999, 0, -1):
            t = Mul(Var(f"x{i}"), t)
        env = {f"x{i}": i % 3 for i in range(1, 5001)}
        assert eval_cayley(Z3_RIGHT, t, env) == (env["x5000"] + 4999) % 3


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


def _numpy_first_counterexample(G, s, t):
    """The lexicographic-first counterexample, one slice per value of the
    first variable, with terms evaluated by 2-D indexing of the table."""
    table = np.array(G.table, dtype=np.int64)
    first, *rest = sorted(set(variables(s)) | set(variables(t)), key=var_key)
    shape = [G.n] * len(rest)
    grids = {
        name: np.arange(G.n).reshape([G.n if j == i else 1 for j in range(len(rest))])
        for i, name in enumerate(rest)
    }

    def value(term, env):
        if isinstance(term, Var):
            return env[term.name]
        return table[value(term.left, env), value(term.right, env)]

    for v in range(G.n):
        env = {first: v, **grids}
        equal = np.broadcast_to(value(s, env) == value(t, env), shape)
        if equal.any():
            hit = np.unravel_index(int(np.argmax(equal)), shape)
            return {first: v, **dict(zip(rest, map(int, hit)))}
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


def _random_table(rng, n):
    return CayleyGroupoid(
        tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
    )


class TestSeparations:
    """The many-pair engine against plain per-assignment enumeration."""

    @staticmethod
    def _pairs(rng, k, count):
        # ordered k-ary terms share their subterm objects; the parsed terms
        # mix in other variable sets, so some pairs miss the leading variables
        ordered = enumerate_ordered_terms(k)
        extra = [parse_term(text) for text in ("x2*x3", "x3", "(x3*x3)*x2", "x1*x3")]
        pairs = [tuple(rng.sample(ordered, 2)) for _ in range(count)]
        pairs += [tuple(rng.sample(extra, 2)) for _ in range(count // 3)]
        pairs.append((ordered[0], ordered[0]))
        return pairs

    @pytest.mark.parametrize("chunk", [3, 8, 2**15])
    @pytest.mark.parametrize(
        "n, k",
        [(2, 3), (2, 6), (3, 4), (3, 5), (4, 3), (4, 5), (4, 6), (8, 3), (8, 4)],
    )
    def test_matches_plain_enumeration(self, monkeypatch, n, k, chunk):
        # a chunk of 3 slices the last variable's range of orders 4 and 8,
        # a chunk of 8 fixes leading variables per block, the default holds
        # all variables of most of these in one block
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        rng = random.Random(f"{n} {k} {chunk}")
        tables = [_random_table(rng, n) for _ in range(3)]
        tables.append(product_groupoid(Z2_LEFT, Z3_RIGHT) if n > 4 else Z2_LEFT)
        outcomes = set()
        for G in tables:
            pairs = self._pairs(rng, k, 9)
            plain = [_plain_first_counterexample(G, s, t) for s, t in pairs]
            many = separations(G, pairs)
            assert [v.counterexample for v in many] == plain
            assert [v.separated for v in many] == [first is None for first in plain]
            assert many == [separates_exhaustive(G, s, t) for s, t in pairs]
            outcomes |= {v.separated for v in many}
        assert outcomes == {True, False}

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_factor_tables_separate_their_pairs(self, k):
        by_factor = {}
        for pair, cert in antiassociative_certificates(k):
            if cert.groupoid.order**k <= 4096:
                by_factor.setdefault(cert.groupoid, []).append(pair)
        assert by_factor
        for groupoid, pairs in by_factor.items():
            G = to_cayley(groupoid)
            for verdict, (s, t) in zip(separations(G, pairs), pairs):
                assert verdict.separated
            s, t = pairs[0]
            assert _plain_first_counterexample(G, s, t) is None

    def test_hoisted_nodes_are_evaluated_once_per_call(self, monkeypatch):
        # order 2 with a chunk of 2 fixes x1 and x2 per block: 4 blocks.
        # x3*x3 and (x3*x3)*x3 hold neither and are taken once per call;
        # x1*x3, x1*x2 and (x1*x2)*x3 once per block
        monkeypatch.setattr(cayley, "_CHUNK", 2)
        taken = []
        take = np.take
        monkeypatch.setattr(
            cayley.np, "take", lambda *a, **kw: taken.append(1) or take(*a, **kw)
        )
        pairs = [
            (parse_term("x1*x3"), parse_term("(x1*x2)*x3")),
            (parse_term("x3*x3"), parse_term("(x3*x3)*x3")),
        ]
        # x*y = x+1 (mod 2): each side is its leftmost variable plus its depth
        verdicts = separations(Z2_LEFT, pairs)
        assert all(v.separated for v in verdicts)
        assert len(taken) == 2 + 3 * 4

    @pytest.mark.parametrize("chunk", [3, 20])
    def test_blocks_stay_within_the_chunk(self, monkeypatch, chunk):
        # a chunk of 3 slices x4's range of order 8; one of 20 fixes x1..x3
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        sizes = []
        take = np.take
        monkeypatch.setattr(
            cayley.np, "take", lambda a, i: sizes.append(np.size(i)) or take(a, i)
        )
        G = _random_table(random.Random(chunk), 8)
        separations(G, list(itertools.combinations(enumerate_ordered_terms(4), 2)))
        assert sizes and max(sizes) <= chunk

    def test_decided_pairs_keep_their_first_counterexample(self, monkeypatch):
        # x*y = x+1 (mod 2): the first pair fails at x1 = x2 = 0, in the
        # first of 4 blocks, and the other two are walked to the end
        monkeypatch.setattr(cayley, "_CHUNK", 2)
        pairs = [
            (parse_term("x1*x2"), parse_term("x2*x1")),
            (parse_term("x1*x3"), parse_term("(x1*x2)*x3")),
            (parse_term("x2*x3"), parse_term("x1*x3")),
        ]
        assert separations(Z2_LEFT, pairs) == [
            SeparationVerdict(False, {"x1": 0, "x2": 0}),
            SeparationVerdict(True),
            SeparationVerdict(False, {"x1": 0, "x2": 0, "x3": 0}),
        ]

    @pytest.mark.parametrize("n, chunk", [(20, 2**15), (20, 8), (300, 2**17)])
    def test_wide_orders_match_a_two_dimensional_evaluator(self, monkeypatch, n, chunk):
        # order 20 has byte values and two-byte table indices; order 300
        # two-byte values and four-byte indices.  A chunk of 8 slices
        # x3's range of order 20; 2**17 holds x2 and x3 of order 300 in a
        # block, so the separated pair takes 300 blocks
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        rng = random.Random(n)
        m = n // {20: 4, 300: 12}[n]
        f = [(i + 1) % (n // m) for i in range(n // m)]
        tables = [
            _random_table(rng, n),
            # the left-deranged factor tells the ordered terms apart
            product_groupoid(deranged_groupoid(n // m, f, "LEFT"), _random_table(rng, m)),
        ]
        pairs = [tuple(enumerate_ordered_terms(3))] + [
            (parse_term(s), parse_term(t))
            for s, t in [
                ("x1*(x2*x3)", "x3*(x1*x2)"),
                ("(x2*x1)*x3", "x1*x3"),
                ("x1*x2", "x2*x1"),
                ("x3*x3", "x2*(x3*x1)"),
            ]
        ]
        outcomes = set()
        for G in tables:
            want = [_numpy_first_counterexample(G, s, t) for s, t in pairs]
            if n == 20:
                assert want == [_plain_first_counterexample(G, s, t) for s, t in pairs]
            verdicts = separations(G, pairs)
            assert [v.counterexample for v in verdicts] == want
            assert [v.separated for v in verdicts] == [first is None for first in want]
            outcomes |= {v.separated for v in verdicts}
            # some first hit needs a value past one byte
            assert any(max(first.values()) > 255 for first in want if first) == (n > 256)
        assert outcomes == {True, False}

    def test_no_pairs(self):
        assert separations(Z3_RIGHT, []) == []

    def test_budget_counts_the_union_of_variables(self):
        pairs = [(parse_term("x*y"), parse_term("y")), (parse_term("z"), parse_term("z*z"))]
        with pytest.raises(BudgetExceededError):
            separations(Z3_RIGHT, pairs, budget=26)
        assert len(separations(Z3_RIGHT, pairs, budget=27)) == 2


class TestAffineSeparations:
    """The bit-sliced engine against separations on the groupoid's table:
    the same verdicts, counterexamples and budget errors."""

    @staticmethod
    def _check(G, pairs, budget=DEFAULT_EVAL_BUDGET) -> set:
        want = separations(dense.cayley_table(G), pairs, budget=budget)
        assert affine_separations(G, pairs, budget=budget) == want
        return {v.separated for v in want}

    def test_matches_the_table_engine(self):
        # the widest groupoids get fewer variables, so every space fits 2**18
        rng = random.Random(16)
        cross = dense.random_cross_checks(random.Random(17))
        outcomes, widths = set(), set()
        for G in dense.random_groupoids(16, 40):
            names = "xyz"[: max(1, min(3, 18 // max(G.width, 1)))]
            pairs = [
                (
                    dense.random_term(rng, rng.randint(1, 5), names),
                    dense.random_term(rng, rng.randint(1, 5), names),
                )
                for _ in range(6)
            ]
            pairs += [(dense.random_dag(rng, 3, names), dense.random_dag(rng, 4, names))]
            if G.width <= 4:  # over x, y, z and u
                pairs += [next(cross)[1:] for _ in range(3)]
            pairs.append((pairs[0][0], pairs[0][0]))
            outcomes |= self._check(G, pairs)
            widths.add(G.width)
        assert outcomes == {True, False}
        assert set(range(1, 7)) <= widths

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_small_chunks_match_the_table_engine(self, monkeypatch, chunk):
        # a chunk that is not a power of two takes the power of two below
        # it; each k = 5 factor separates its own pairs and few others, and
        # those of width 2 take 4**5 assignments, each a block of its own at a
        # chunk of 1
        monkeypatch.setattr(cayley, "_CHUNK", chunk)
        rng = random.Random(chunk)
        ordered = enumerate_ordered_terms(5)
        by_factor = {}
        for pair, cert in antiassociative_certificates(5):
            if cert.groupoid.width <= 2:
                by_factor.setdefault(cert.groupoid, []).append(pair)
        outcomes = set()
        for G, pairs in by_factor.items():
            outcomes |= self._check(G, pairs + [tuple(rng.sample(ordered, 2)) for _ in range(3)])
        assert outcomes == {True, False}

    def test_width_zero(self):
        G = VecGroupoid((), (), (), 0)
        pairs = [(parse_term("x"), parse_term("x*y")), (parse_term("y*y"), parse_term("y"))]
        assert self._check(G, pairs) == {False}
        assert affine_separations(G, pairs)[0].counterexample == {"x": 0, "y": 0}

    def test_no_pairs(self):
        assert affine_separations(VecGroupoid((), (), (), 0), []) == []
        assert affine_separations(dense.worked_example()[0], [], budget=0) == []

    @pytest.mark.parametrize("width, names", [(1, "xy"), (2, "xy"), (5, "x"), (2, "xyz")])
    def test_spaces_below_one_word(self, width, names):
        # 4, 16, 32 and 64 assignments, one block shorter than a machine word
        rng = random.Random(width * len(names))
        outcomes = set()
        for _ in range(10):
            G = dense.random_affine(rng, width)
            pairs = [
                (dense.random_term(rng, rng.randint(1, 4), names), dense.random_term(rng, rng.randint(1, 4), names))
                for _ in range(6)
            ]
            outcomes |= self._check(G, pairs)
        assert outcomes == {True, False}

    def test_space_of_several_blocks(self):
        # x*y = x + y + c with c = (1, 0, 0), element 4: x1 = x1*x1 holds at
        # x1 = 4 only, in the fifth of the eight blocks of 2**18 assignments
        eye = np.eye(3, dtype=np.uint8)
        G = affine_groupoid(eye, eye, [1, 0, 0])
        pairs = [
            (parse_term("x1"), parse_term("x1*x1")),
            (parse_term("x1"), parse_term("x1*x2")),
            (parse_term("x3*x4"), parse_term("x5*x6")),
        ]
        assert 8**6 // cayley._CHUNK == 8
        self._check(G, pairs)
        assert affine_separations(G, pairs) == [
            SeparationVerdict(False, {"x1": 4}),
            SeparationVerdict(False, {"x1": 0, "x2": 4}),
            SeparationVerdict(False, {"x3": 0, "x4": 0, "x5": 0, "x6": 0}),
        ]

    def test_budget_boundary(self):
        # width 2 over x, y and z: 4**3 = 64 assignments
        G = dense.random_affine(random.Random(3), 2)
        pairs = [(parse_term("x*y"), parse_term("z"))]
        for engine in (lambda: affine_separations(G, pairs, budget=63),
                       lambda: separations(dense.cayley_table(G), pairs, budget=63)):
            with pytest.raises(BudgetExceededError, match="64 assignments exceed budget 63"):
                engine()
        self._check(G, pairs, budget=64)

    def test_leaves_no_reference_cycles(self):
        # a cycle would hold every register of the walk until the collector runs
        G = dense.worked_example()[0]
        pairs = [(parse_term("x*(z*(z*x))"), parse_term("(y*z)*(x*y)"))]
        gc.collect()
        gc.disable()
        try:
            affine_separations(G, pairs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_default_budget_k6_factors_stay_small(self):
        # no block holds more than 2**15 assignments: the 2**24 of a
        # width-4 factor would take 8 MB per register
        by_factor = {}
        for pair, cert in antiassociative_certificates(6):
            if cert.groupoid.order**6 <= DEFAULT_EVAL_BUDGET:
                by_factor.setdefault(cert.groupoid, []).append(pair)
        assert sum(map(len, by_factor.values())) == 761
        tracemalloc.start()
        try:
            for G, pairs in by_factor.items():
                assert all(v.separated for v in affine_separations(G, pairs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_first_failing_pair_as_checked_pair_by_pair(self, k):
        rng = random.Random(k)
        pairs = list(itertools.combinations(enumerate_ordered_terms(k), 2))
        for n in (2, 3, 3, 4):
            G = _random_table(rng, n)
            want = AntiassociativityReport(k, True)
            for s, t in pairs:
                verdict = separates_exhaustive(G, s, t)
                if not verdict.separated:
                    want = AntiassociativityReport(
                        k, False, (s, t), verdict.counterexample
                    )
                    break
            assert is_k_antiassociative(G, k) == want


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
