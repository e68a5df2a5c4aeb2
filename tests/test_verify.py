import gc
import hashlib
import itertools
import random
import time

import numpy as np
import pytest

import dense_reference as dense
import parity_reference
import termsep.verify as verify_module
from termsep.synth import (
    antiassociative_certificates,
    decide_finite_separability,
    find_cover_pair,
    synth_cover,
)
from termsep.terms import Mul, Var, parse_term, render_term, subterm_at
from termsep.vecops import (
    RegisterAllocator,
    basic_op,
    compile_opsum,
    eval_term_vec,
    op_sum,
    term_affine_form,
)
from termsep.verify import (
    affine_separation_decision,
    check_parity_functional,
    check_parity_functionals,
    check_transfer_lemma,
    cross_check,
    lemma_harness,
)


def cover_groupoid():
    s, t = parse_term("x*y"), parse_term("(x*u)*v")
    return synth_cover(find_cover_pair(s, t)).groupoid, s, t


class TestAffineDecision:
    def test_separated_gives_lambda(self):
        G, s, t = cover_groupoid()
        decision = affine_separation_decision(G, s, t)
        assert decision.separated
        assert decision.lam == frozenset({0}) and decision.assignment is None

    def test_not_separated_gives_assignment(self):
        G, _, _ = cover_groupoid()
        s, t = parse_term("x*y"), parse_term("y*x")
        decision = affine_separation_decision(G, s, t)
        assert not decision.separated and decision.assignment is not None
        vs = eval_term_vec(G, s, decision.assignment)
        vt = eval_term_vec(G, t, decision.assignment)
        assert np.array_equal(vs, vt)

    def test_identical_terms_trivially_coincide(self):
        G, s, _ = cover_groupoid()
        assert not affine_separation_decision(G, s, s).separated

    def test_minimum_weight_lambda(self):
        G, s, t = cover_groupoid()
        lam = affine_separation_decision(G, s, t).lam
        # any valid functional works; the decision must return a smallest one
        assert len(lam) == 1
        assert check_parity_functional(G, s, t, lam)

    def test_parity_check_rejects_wrong_set(self):
        G, s, t = cover_groupoid()
        # registers 0 and 1 each work alone; their sum cancels the constant
        assert check_parity_functional(G, s, t, frozenset({1}))
        assert not check_parity_functional(G, s, t, frozenset({0, 1}))
        assert not check_parity_functional(G, s, t, frozenset())


class TestAgainstDense:
    """The packed decision and parity check give the dense path's results."""

    @pytest.mark.parametrize("seed", range(4))
    def test_decision(self, seed):
        rng = random.Random(200 + seed)
        separated = 0
        for G in dense.random_groupoids(seed, 60):
            for _ in range(5):
                s = dense.random_term(rng, rng.randint(1, 6))
                t = dense.random_term(rng, rng.randint(1, 6))
                got = affine_separation_decision(G, s, t)
                want_sep, want_lam, want_assignment = dense.decision(G, s, t)
                assert got.separated == want_sep and got.lam == want_lam
                if want_assignment is None:
                    assert got.assignment is None
                else:
                    assert {n: v.tolist() for n, v in got.assignment.items()} == {
                        n: v.tolist() for n, v in want_assignment.items()
                    }
                separated += want_sep
        assert separated > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_parity_check(self, seed):
        rng = random.Random(300 + seed)
        for G in dense.random_groupoids(seed, 40):
            s = dense.random_term(rng, rng.randint(1, 6))
            t = dense.random_term(rng, rng.randint(1, 6))
            for _ in range(4):
                lam = frozenset(r for r in G.indices if rng.random() < 0.5)
                assert check_parity_functional(G, s, t, lam) == dense.parity_ok(G, s, t, lam)
            decision = affine_separation_decision(G, s, t)
            if decision.separated:
                assert check_parity_functional(G, s, t, decision.lam)

    def test_batched_parity_check_on_every_k5_pair(self):
        """Each k = 5 pair with its own lam and with every one-register
        change of it, one batch per factor: the batched check gives the
        dense check's verdicts, in order."""
        groups: dict = {}
        for pair, cert in antiassociative_certificates(5):
            groups.setdefault(cert.groupoid, []).append((pair, cert.lam))
        for G, members in groups.items():
            changes = [None, *G.indices]
            cases = [
                (pair, lam if reg is None else lam ^ {reg})
                for pair, lam in members
                for reg in changes
            ]
            got = check_parity_functionals(G, [p for p, _ in cases], [lam for _, lam in cases])
            assert got == [dense.parity_ok(G, *pair, lam) for pair, lam in cases]
            for i in range(0, len(cases), len(changes)):
                own, *changed = got[i : i + len(changes)]
                assert own and not all(changed)
        assert check_parity_functionals(G, [], []) == []

    @pytest.mark.parametrize("seed", range(2))
    def test_batched_parity_check(self, seed):
        rng = random.Random(400 + seed)
        passed = 0
        for G in dense.random_groupoids(seed, 40):
            pairs, lams = [], []
            for _ in range(6):
                s = dense.random_term(rng, rng.randint(1, 6))
                t = dense.random_term(rng, rng.randint(1, 6))
                decision = affine_separation_decision(G, s, t)
                if decision.separated and rng.random() < 0.5:
                    lam = decision.lam
                else:
                    lam = frozenset(r for r in G.indices if rng.random() < 0.5)
                pairs.append((s, t))
                lams.append(lam)
            got = check_parity_functionals(G, pairs, lams)
            assert got == [dense.parity_ok(G, *pair, lam) for pair, lam in zip(pairs, lams)]
            passed += sum(got)
        assert 0 < passed < 6 * 41

    def test_decision_leaves_no_reference_cycles(self):
        G, s, t = dense.worked_example()
        gc.collect()
        gc.disable()
        try:
            for pair in ((s, t), (s, s)):
                affine_separation_decision(G, *pair)
                check_parity_functional(G, *pair, frozenset({0}))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_search_certificate_is_pinned(self):
        result = decide_finite_separability(parse_term("x*(y*y)"), parse_term("(y*(y*y))*x"))
        assert result.construction == "search"
        assert result.certificate.opsum.render() == "||1,l,0|| + ||1,r,1||'"
        assert result.to_json()["lambda"] == [0, 1]
        assert result.to_json()["groupoid"] == {
            "indices": [0, 1], "A": [[0, 1], [0, 0]], "B": [[0, 0], [0, 1]], "c": [0, 1],
        }


class TestPullback:
    """The pullback gives the forward check's verdicts, which build every
    register's row over all the variables at every step."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_sharing_subterms(self, seed):
        """t is built from subterms of s, and some pairs repeat a term, so
        the pairs' functionals meet at shared steps; each lam is the
        decision's or a random one, so both verdicts occur."""
        rng = random.Random(500 + seed)
        verdicts = set()
        for G in dense.random_groupoids(seed, 30):
            pairs, lams = [], []
            for _ in range(8):
                s = dense.random_dag(rng, rng.randint(1, 8))
                parts = [s, s.left, s.right] if isinstance(s, Mul) else [s]
                if rng.random() < 0.2:
                    t = rng.choice(parts)
                else:
                    t = Mul(rng.choice(parts), dense.random_dag(rng, rng.randint(0, 4)))
                    if rng.random() < 0.5:
                        t = Mul(t.right, t.left)
                decision = affine_separation_decision(G, s, t)
                if decision.separated and rng.random() < 0.7:
                    lam = decision.lam
                else:
                    lam = frozenset(r for r in G.indices if rng.random() < 0.5)
                pairs.append((s, t))
                lams.append(lam)
            want = parity_reference.check_parity_functionals(G, pairs, lams)
            assert check_parity_functionals(G, pairs, lams) == want
            assert [check_parity_functional(G, *pair, lam) for pair, lam in zip(pairs, lams)] == want
            verdicts.update(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k", range(3, 8))
    def test_every_factor_group(self, k):
        """Each pair of every factor group of the k-antiassociative
        groupoid, with its own lam and with each one-register change of
        it, in one batch per factor."""
        groups: dict = {}
        for pair, cert in antiassociative_certificates(k):
            groups.setdefault(cert.groupoid, []).append((pair, cert.lam))
        for G, members in groups.items():
            pairs = [pair for pair, _ in members for _ in range(G.width + 1)]
            lams = [lam ^ change for _, lam in members for change in [set(), *({r} for r in G.indices)]]
            got = check_parity_functionals(G, pairs, lams)
            assert got == parity_reference.check_parity_functionals(G, pairs, lams)
            assert all(got[:: G.width + 1])

    def test_width_2000_cover_certificate(self):
        """x*(x*(...)) against ((x*x)*...)*x, both of depth 2,000: the
        cover is as wide as the combs are deep.  The forward check builds
        2,000 rows of 2,000 bits at each of the 4,000 steps."""
        x = right = left = Var("x")
        for _ in range(2000):
            right, left = Mul(x, right), Mul(left, x)
        result = decide_finite_separability(right, left)
        assert result.construction == "cover"
        G, lam = result.certificate.groupoid, result.certificate.lam
        assert G.width == 2000
        start = time.perf_counter()
        assert check_parity_functional(G, right, left, lam)
        assert time.perf_counter() - start < 1.0
        assert not check_parity_functional(G, right, left, lam ^ {G.indices[-1]})
        assert not check_parity_functional(G, right, right, lam)


class TestDeepTerms:
    @staticmethod
    def comb_pair():
        """s = x*(y1*(y2*(...*(y1999*y2000)))), a right comb of depth
        2,000, against the left comb t = (x*u)*v."""
        s = Var("y2000")
        for i in range(1999, 0, -1):
            s = Mul(Var(f"y{i}"), s)
        return Mul(Var("x"), s), parse_term("(x*u)*v")

    @pytest.mark.parametrize("parsed", [False, True])
    def test_right_comb_against_left_comb(self, parsed):
        s, t = self.comb_pair()
        if parsed:
            s = parse_term("x*(" + render_term(s.right) + ")")
        result = decide_finite_separability(s, t)
        assert (result.verdict, result.construction) == ("separated", "cover")
        G, lam = result.certificate.groupoid, result.certificate.lam
        assert check_parity_functional(G, s, t, lam)
        decision = affine_separation_decision(G, s, t)
        assert decision.separated and decision.lam == lam

    def test_forms_and_values_agree(self):
        s, _ = self.comb_pair()
        G = dense.worked_example()[0]
        rng = random.Random(0)
        names = ["x"] + [f"y{i}" for i in range(1, 2001)]
        env = {name: np.array([rng.randrange(2) for _ in range(G.width)]) for name in names}
        form = term_affine_form(G, s)
        assert form.vars == tuple(names)
        assert form.evaluate(env).tolist() == eval_term_vec(G, s, env).tolist()


class TestCrossCheck:
    def test_cover_example(self):
        G, s, t = cover_groupoid()
        assert cross_check(G, s, t)

    def test_budget_guard(self):
        G, s, t = cover_groupoid()
        with pytest.raises(ValueError):
            cross_check(G, s, t, budget=2)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_trials(self, seed):
        """500 random (groupoid, pair) trials split over seeds: the affine
        decision and exhaustive table search always agree."""
        for G, s, t in itertools.islice(dense.random_cross_checks(random.Random(seed)), 50):
            assert cross_check(G, s, t)


class TestTransferLemma:
    def test_worked_component_example(self):
        alloc = RegisterAllocator()
        opsum = op_sum([basic_op(2, "lr", 0, allocator=alloc)])
        G = compile_opsum(opsum)
        term = parse_term("(u*v)*w")
        assert check_transfer_lemma(G, opsum, 0, term)

    def test_tweaked_op(self):
        alloc = RegisterAllocator()
        opsum = op_sum([basic_op(1, "l", 1, tweaked=True, allocator=alloc)])
        G = compile_opsum(opsum)
        assert check_transfer_lemma(G, opsum, 0, parse_term("x*y"))

    def test_term_missing_path_rejected(self):
        alloc = RegisterAllocator()
        opsum = op_sum([basic_op(2, "lr", 0, allocator=alloc)])
        G = compile_opsum(opsum)
        with pytest.raises(Exception):
            check_transfer_lemma(G, opsum, 0, parse_term("x"))


class TestLemmaHarness:
    def test_default_run_clean(self):
        report = lemma_harness(trials=200, seed=5)
        assert report.ok
        assert report.plain_checked + report.tweaked_checked == 200
        assert report.tweaked_checked > 0

    def test_report_and_terms_as_before_the_loop(self, monkeypatch):
        """The spine is built by a loop, drawing from rng in the order the
        recursive builder did: the same 1,000 terms and the same report."""
        drawn = []
        build = verify_module._random_term_with_path

        def recording(rng, path, max_extra_depth):
            term = build(rng, path, max_extra_depth)
            drawn.append(render_term(term))
            return term

        monkeypatch.setattr(verify_module, "_random_term_with_path", recording)
        report = lemma_harness(trials=1000, seed=0)
        assert (report.trials, report.plain_checked, report.tweaked_checked) == (1000, 497, 503)
        assert report.failures == ()
        assert hashlib.sha256("\n".join(drawn).encode()).hexdigest() == (
            "4d08a0bdfebe17a27f5ef6a4cb9fe1816a88e04a4d22013a8fcde080e9d87b7f"
        )

    def test_path_deeper_than_the_recursion_limit(self):
        path = "lr" * 2500
        term = verify_module._random_term_with_path(random.Random(0), path, max_extra_depth=2)
        subterm_at(term, path)  # raises if the path leaves the tree

    def test_deterministic(self):
        a = lemma_harness(trials=50, seed=9)
        b = lemma_harness(trials=50, seed=9)
        assert (a.plain_checked, a.tweaked_checked) == (
            b.plain_checked,
            b.tweaked_checked,
        )
