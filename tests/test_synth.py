import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cover_reference as ref
import dense_reference as dense
from termsep import synth
from termsep.cayley import is_k_antiassociative, separates_exhaustive
from termsep.synth import (
    CoverWitness,
    CycleWitness,
    MAX_ANTIASSOC_PAIRS,
    antiassociative_certificates,
    build_k_antiassociative,
    cycle_opsum,
    decide_finite_separability,
    find_cover_pair,
    find_cycle,
    search_separator,
    synth_cover,
    synth_cycle,
)
from termsep.terms import Mul, Var, enumerate_ordered_terms, parse_term, render_term
from termsep.vecops import compile_opsum, to_cayley
from termsep.verify import affine_separation_decision, check_parity_functional


def trees(*texts):
    return [parse_term(x) for x in texts]


class TestCoverWitness:
    def test_w_splits_p(self):
        w = CoverWitness("x", "s", "l", "t", "llr")
        assert w.w == "lr"

    def test_same_side_rejected(self):
        with pytest.raises(ValueError):
            CoverWitness("x", "s", "l", "s", "ll")

    def test_non_prefix_rejected(self):
        with pytest.raises(ValueError):
            CoverWitness("x", "s", "r", "t", "ll")


class TestFindCoverPair:
    def test_nested_occurrence(self):
        s, t = trees("x*y", "(x*u)*v")
        w = find_cover_pair(s, t)
        assert (w.variable, w.shallow_side, w.q, w.p) == ("x", "s", "l", "ll")

    def test_bare_variable_gives_empty_q(self):
        s, t = trees("x", "x*y")
        w = find_cover_pair(s, t)
        assert (w.q, w.p) == ("", "l")

    def test_no_cover_on_swap(self):
        assert find_cover_pair(*trees("x*y", "y*x")) is None

    def test_smallest_witness_chosen(self):
        # y also covers (r vs rr) but x sorts first
        s, t = trees("x*y", "(x*x)*(u*y)")
        w = find_cover_pair(s, t)
        assert w.variable == "x" and (w.q, w.p) in {("l", "ll"), ("l", "lr")}


class TestSynthCover:
    def test_certificate_separates_everywhere(self):
        s, t = trees("x*y", "(x*u)*v")
        cert = synth_cover(find_cover_pair(s, t))
        assert cert.kind == "cover" and cert.lam == frozenset({0})
        table = to_cayley(cert.groupoid)
        verdict = separates_exhaustive(table, s, t)
        assert verdict.separated and verdict.counterexample is None

    def test_empty_q_certificate(self):
        s, t = trees("x", "x*y")
        cert = synth_cover(find_cover_pair(s, t))
        assert cert.lam == frozenset({1})
        assert len(cert.opsum.summands) == 1
        assert separates_exhaustive(to_cayley(cert.groupoid), s, t).separated

    def test_parity_functional_checks_out(self):
        s, t = trees("x*y", "(x*u)*v")
        cert = synth_cover(find_cover_pair(s, t))
        assert check_parity_functional(cert.groupoid, s, t, cert.lam)

    def test_expected_matrices_for_unit_cover(self):
        cert = synth_cover(CoverWitness("x", "s", "", "t", "l"))
        G = cert.groupoid
        assert G.indices == (1,)
        assert G.A.tolist() == [[1]]
        assert G.c.tolist() == [1]


class TestCycleWitness:
    @staticmethod
    def cycle_example_pair():
        return trees("(y0*y1)*(z0*(z1*y0))", "((z2*y1)*y2)*(z3*y2)")

    def test_find_cycle_matches_known_data(self):
        w = find_cycle(*self.cycle_example_pair())
        assert w is not None and w.k == 3
        assert w.p == ("ll", "lr", "rr")
        assert w.q == ("r", "", "r")
        assert w.strict_indices == frozenset({0, 2})
        f = w.class_map()
        assert f[0] == 0 and f[1] == f[2] == 1

    def test_validate_accepts_found_witness(self):
        s, t = self.cycle_example_pair()
        find_cycle(s, t).validate(s, t)

    def test_strict_first_edge_required(self):
        with pytest.raises(ValueError, match="strict"):
            CycleWitness(("x", "y"), ("s", "t"), ("l", "r"), ("", "l")).validate(
                *trees("x*y", "y*x")
            )

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (("lll", "lr", "rr"), ("r", "", "r"), r"up occurrence \('lll', 'y0'\) missing from s"),
            (("lx", "lr", "rr"), ("r", "", "r"), r"up occurrence \('lx', 'y0'\) missing from s"),
            (("ll", "lr", "rr"), ("l", "", "r"), r"down occurrence \('lll', 'y1'\) missing"),
            (("ll", "lr", "rr"), ("r", "", "rl"), r"down occurrence \('rrrl', 'y0'\) missing"),
        ],
    )
    def test_missing_occurrences_rejected(self, p, q, message):
        # the found witness is (ll, lr, rr), (r, '', r): each case moves one
        # path onto another variable or off the tree
        s, t = self.cycle_example_pair()
        with pytest.raises(ValueError, match=message):
            CycleWitness(("y0", "y1", "y2"), ("s", "s", "t"), p, q).validate(s, t)

    def test_four_cycle_example(self):
        s, t = trees("(x*y)*(z*w)", "((w*u)*x)*((y*v)*z)")
        w = find_cycle(s, t)
        assert w is not None and w.k == 4
        # alternating strict and lax edges around the cycle
        assert len(w.strict_indices) == 2 and 0 in w.strict_indices

    def test_no_cycle_without_crossing(self):
        assert find_cycle(*trees("(x*y)*(z*y)", "z*((y*y)*(x*x))")) is None


class TestSynthCycle:
    def test_cycle_example_opsum_rendering(self):
        w = find_cycle(*TestCycleWitness.cycle_example_pair())
        opsum = cycle_opsum(w)
        assert opsum.render() == "||3,ll,0|| + ||4,lr,1|| + ||4,rr,2|| + ||4,r,3||' + ||3,r,4||"

    def test_certificate_separates(self):
        s, t = TestCycleWitness.cycle_example_pair()
        cert = synth_cycle(find_cycle(s, t))
        assert cert.kind == "cycle" and cert.lam == frozenset({0, 1, 2})
        decision = affine_separation_decision(cert.groupoid, s, t)
        assert decision.separated
        assert check_parity_functional(cert.groupoid, s, t, cert.lam)

    def test_tweak_is_what_breaks_the_tie(self):
        s, t = TestCycleWitness.cycle_example_pair()
        w = find_cycle(s, t)
        plain = compile_opsum(cycle_opsum(w, tweak=False))
        rng = random.Random(11)
        lam = sorted(range(w.k))
        from termsep.terms import occurrences
        from termsep.vecops import eval_term_vec

        names = sorted({n for _, n in occurrences(s)} | {n for _, n in occurrences(t)})
        for _ in range(1000):
            env = {
                name: np.array(
                    [rng.randrange(2) for _ in range(plain.width)], dtype=np.uint8
                )
                for name in names
            }
            vs = eval_term_vec(plain, s, env)
            vt = eval_term_vec(plain, t, env)
            par = lambda v: int(sum(v[plain.position(i)] for i in lam)) % 2
            assert par(vs) == par(vt)

    def test_four_cycle_certificate(self):
        s, t = trees("(x*y)*(z*w)", "((w*u)*x)*((y*v)*z)")
        cert = synth_cycle(find_cycle(s, t))
        assert affine_separation_decision(cert.groupoid, s, t).separated

    def test_two_cycle_class_collapse(self):
        # k=2 with one lax edge: both carriers share a register
        s, t = trees("(x*y)*u", "(y*(x*v))*u")
        w = find_cycle(s, t)
        assert w is not None and w.k == 2
        f = w.class_map()
        if w.strict_indices != frozenset({0, 1}):
            assert f[0] == f[1] == 0
        cert = synth_cycle(w)
        assert affine_separation_decision(cert.groupoid, s, t).separated


class TestOneWalk:
    """find_cover_pair and find_cycle read one early-exit walk over both
    terms; they must give what the all-pairs loops of cover_reference
    give."""

    @staticmethod
    def same_as_reference(pairs):
        for s, t in pairs:
            assert find_cover_pair(s, t) == ref.cover_pair(s, t), (s, t)
            assert find_cycle(s, t) == ref.cycle(s, t), (s, t)

    def test_sweep_sample(self):
        terms = ref.sweep_terms()
        rng = random.Random(11)
        self.same_as_reference(
            (rng.choice(terms), rng.choice(terms)) for _ in range(3000)
        )

    def test_random_repeated_variables(self):
        rng = random.Random(12)
        self.same_as_reference(
            (
                dense.random_term(rng, rng.randint(1, 12), names),
                dense.random_term(rng, rng.randint(1, 12), names),
            )
            for names in ("xy", "xyz", "xyzuv")
            for _ in range(700)
        )

    @pytest.mark.parametrize("k", range(3, 7))
    def test_ordered_pairs(self, k):
        self.same_as_reference(itertools.permutations(enumerate_ordered_terms(k), 2))

    @pytest.mark.long
    def test_full_sweep(self):
        self.same_as_reference(itertools.combinations(ref.sweep_terms(), 2))

    def test_deep_combs_are_linear(self):
        # x*(x*(...)) against ((x*x)*x)*...: all-pairs loops compare 10^8
        # pairs of leaves here
        depth = 10_000
        x = right = left = Var("x")
        for _ in range(depth):
            right, left = Mul(x, right), Mul(left, x)
        start = time.perf_counter()
        w = find_cover_pair(right, left)
        assert time.perf_counter() - start < 2.0
        assert (w.variable, w.shallow_side, w.q, w.p) == ("x", "s", "l", "l" * depth)
        # the paths below each frontier leaf took about 100 MB as strings
        tracemalloc.start()
        try:
            find_cover_pair(right, left)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_deep_cycle_is_linear(self):
        # the cycle example with s multiplied by a right comb of depth
        # 10,000 over fresh variables and t by a fresh leaf: the leaf's
        # edges reach every variable of the comb and close no cycle
        s, t = TestCycleWitness.cycle_example_pair()
        comb = Var("c10000")
        for i in range(9999, -1, -1):
            comb = Mul(Var(f"c{i}"), comb)
        s, t = Mul(s, comb), Mul(t, Var("f"))
        start = time.perf_counter()
        w = find_cycle(s, t)
        assert time.perf_counter() - start < 1.0
        assert w == CycleWitness(
            ("y0", "y1", "y2"), ("s", "s", "t"), ("lll", "llr", "lrr"), ("r", "", "r")
        )
        tracemalloc.start()
        try:
            find_cycle(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestBuildKAntiassociative:
    def test_k3(self):
        G, certs = build_k_antiassociative(3)
        assert len(certs) == 1
        table = to_cayley(G)
        report = is_k_antiassociative(table, 3)
        assert report.antiassociative

    def test_k4_pair_count_and_verification(self):
        G, certs = build_k_antiassociative(4)
        assert len(certs) == 10
        for (s, t), cert in certs:
            decision = affine_separation_decision(cert.groupoid, s, t)
            assert decision.separated, (render_term(s), render_term(t))

    def test_k5_affine_only(self):
        G, certs = build_k_antiassociative(5)
        assert len(certs) == 91
        for (s, t), cert in certs[:10]:
            assert affine_separation_decision(cert.groupoid, s, t).separated

    def test_pair_budget(self):
        assert len(antiassociative_certificates(7)) == 8646 <= MAX_ANTIASSOC_PAIRS
        with pytest.raises(ValueError, match="budget"):
            antiassociative_certificates(8)
        with pytest.raises(ValueError, match="budget"):
            build_k_antiassociative(9)

    @pytest.mark.parametrize("k", range(8, 17))
    def test_refused_before_enumerating(self, monkeypatch, k):
        # k=11 alone would list about 141 M pairs
        def refuse(k):
            raise AssertionError("terms enumerated before the budget check")

        monkeypatch.setattr(synth, "enumerate_ordered_terms", refuse)
        with pytest.raises(ValueError, match="pairs exceed budget"):
            antiassociative_certificates(k)

    def test_equal_witnesses_share_one_certificate(self):
        certs = antiassociative_certificates(6)
        for (s, t), cert in certs:
            assert cert == synth_cover(ref.leftmost_cover(s, t))
        assert len({id(cert) for _, cert in certs}) == len({cert for _, cert in certs}) == 42

    def test_groupoid_is_the_sum_of_the_certificates(self):
        G, certs = build_k_antiassociative(4)
        assert [pair for pair, _ in certs] == [
            pair for pair, _ in antiassociative_certificates(4)
        ]
        assert G.width == sum(cert.groupoid.width for _, cert in certs)

    def test_k_below_3_rejected(self):
        with pytest.raises(ValueError):
            build_k_antiassociative(2)


class TestSearch:
    def test_rediscovers_cover_shape(self):
        s, t = trees("x*y", "(x*u)*v")
        cert = search_separator(s, t)
        assert cert is not None and cert.kind == "search"
        assert separates_exhaustive(to_cayley(cert.groupoid), s, t).separated

    def test_zero_budget(self):
        assert search_separator(*trees("x*y", "(x*u)*v"), budget=0) is None

    def test_seed_short_circuits(self):
        s, t = trees("x*y", "(x*u)*v")
        seed = synth_cover(find_cover_pair(s, t)).opsum
        cert = search_separator(s, t, budget=1, seeds=[seed])
        assert cert is not None and cert.opsum is seed


class TestCandidateStream:
    def test_stream_is_pinned(self):
        s, t = parse_term("x*(y*y)"), parse_term("(y*(y*y))*x")
        stream = list(synth._candidate_opsums(s, t))
        assert len(stream) == 1584
        assert stream[0].render() == "||1,l,0||'"
        assert stream[-1].render() == "||2,lrr,1||' + ||2,lrr,2||"
        assert [op.internal for op in stream[-1].summands] == [(3, 4), (5, 6)]


class TestDecideFiniteSeparability:
    def test_not_separable(self):
        out = decide_finite_separability(*trees("x*y", "y*x"))
        assert out.verdict == "not_separable" and out.construction == "unifier"
        assert out.certificate is None and out.unifier is not None

    def test_cover_route(self):
        out = decide_finite_separability(*trees("x*y", "(x*u)*v"))
        assert out.verdict == "separated" and out.construction == "cover"

    def test_cycle_route(self):
        out = decide_finite_separability(*TestCycleWitness.cycle_example_pair())
        assert out.construction == "cycle"

    def test_search_route(self):
        s, t = trees("(x*y)*(z*y)", "z*((y*y)*(x*x))")
        out = decide_finite_separability(s, t)
        assert out.verdict == "separated" and out.construction == "search"
        assert separates_exhaustive(to_cayley(out.certificate.groupoid), s, t).separated

    def test_json_shape(self):
        doc = decide_finite_separability(*trees("x*y", "(x*u)*v")).to_json()
        assert doc["verdict"] == "separated"
        assert {"kind", "opsum", "groupoid", "lambda"} <= set(doc)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 5))
    def test_ordered_term_pairs_always_cover(self, k):
        terms = enumerate_ordered_terms(k)
        rng = random.Random(k)
        s, t = rng.sample(terms, 2)
        out = decide_finite_separability(s, t)
        assert out.verdict == "separated" and out.construction == "cover"
