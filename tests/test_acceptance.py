"""End-to-end gate: eleven numbered criteria, each printing one PASS/FAIL line.

Arithmetic is exact (GF(2) and integers), so every comparison is equality.
Each criterion also asserts its wall-clock budget.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import dense_reference as dense
from termsep.cayley import (
    deranged_groupoid,
    eval_cayley,
    is_k_antiassociative,
    product_groupoid,
    separates_exhaustive,
)
from termsep.census import census, census_pruned, census_unpruned
from termsep.synth import (
    build_k_antiassociative,
    cycle_opsum,
    find_cover_pair,
    find_cycle,
    search_separator,
    synth_cover,
    synth_cycle,
)
from termsep.terms import (
    catalan,
    enumerate_ordered_terms,
    occurrences,
    parse_term,
    render_term,
)
from termsep.unify import apply_subst, unify
from termsep.vecops import (
    RegisterAllocator,
    affine_groupoid,
    basic_op,
    compile_opsum,
    eval_term_vec,
    op_sum,
    term_affine_form,
    to_cayley,
)
from termsep.verify import (
    affine_separation_decision,
    cross_check,
    lemma_harness,
)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def runner(number: int, label: str, limit_s: float):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d} ({label}): FAIL")
            raise
        elapsed = time.perf_counter() - start
        ok = elapsed < limit_s
        with capsys.disabled():
            print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {number} took {elapsed:.1f}s, limit {limit_s}s"

    return runner


def test_criterion_01_term_enumeration(criterion):
    with criterion(1, "term enumeration", 1.0):
        assert [catalan(k - 1) for k in range(1, 7)] == [1, 1, 2, 5, 14, 42]
        for k in range(1, 7):
            assert len(enumerate_ordered_terms(k)) == catalan(k - 1)
        assert [render_term(t) for t in enumerate_ordered_terms(4)] == [
            "((x1*x2)*x3)*x4",
            "(x1*(x2*x3))*x4",
            "(x1*x2)*(x3*x4)",
            "x1*((x2*x3)*x4)",
            "x1*(x2*(x3*x4))",
        ]


def test_criterion_02_deranged_depth_law(criterion):
    with criterion(2, "deranged depth law", 1.0):
        Z2 = deranged_groupoid(2, [1, 0], "LEFT")
        for term in enumerate_ordered_terms(4):
            depth = len(occurrences(term)[0][0])
            for bits in itertools.product(range(2), repeat=4):
                env = {f"x{i+1}": bits[i] for i in range(4)}
                assert eval_cayley(Z2, term, env) == (bits[0] + depth) % 2
        product = product_groupoid(Z2, deranged_groupoid(3, [1, 2, 0], "RIGHT"))
        report = is_k_antiassociative(product, 4)
        assert report.antiassociative


def test_criterion_03_affine_example(criterion):
    with criterion(3, "affine endomorphism example", 10.0):
        alpha = np.zeros((6, 6), dtype=np.uint8)
        for dst, src in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 3), (5, 4)]:
            alpha[dst, src] = 1
        beta = np.zeros((6, 6), dtype=np.uint8)
        for dst, src in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]:
            beta[dst, src] = 1
        c = np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8)
        ab_c = (alpha @ beta @ c) % 2
        assert ab_c.tolist() == [1, 1, 0, 1, 1, 0]
        assert ((alpha @ ab_c) % 2).tolist() == [1, 1, 1, 1, 1, 1]
        G = affine_groupoid(alpha, beta, c)
        s = parse_term("((v*w)*(x*y))*z")
        t = parse_term("((v*(w*x))*y)*z")
        zero = {name: np.zeros(6, dtype=np.uint8) for name in "vwxyz"}
        assert eval_term_vec(G, s, zero).tolist() == [0, 1, 1, 1, 1, 0]
        assert eval_term_vec(G, t, zero).tolist() == [0, 1, 0, 1, 1, 1]
        assert affine_separation_decision(G, s, t).separated
        fs, ft = term_affine_form(G, s), term_affine_form(G, t)
        rng = np.random.default_rng(0)
        n = 1_000_000
        vs = np.broadcast_to(fs.const, (n, 6)).copy()
        vt = np.broadcast_to(ft.const, (n, 6)).copy()
        for name in "vwxyz":
            X = rng.integers(0, 2, size=(n, 6), dtype=np.uint8)
            vs ^= (X @ fs.coeff[name].T) % 2
            vt ^= (X @ ft.coeff[name].T) % 2
        assert bool((vs != vt).any(axis=1).all())


def test_criterion_04_cover_synthesis(criterion):
    with criterion(4, "cover synthesis", 30.0):
        t1, t2 = enumerate_ordered_terms(3)
        cert = synth_cover(find_cover_pair(t1, t2))
        table = to_cayley(cert.groupoid)
        assert table.n == 4
        assert is_k_antiassociative(table, 3).antiassociative
        for k in (3, 4, 5):
            for s, t in itertools.combinations(enumerate_ordered_terms(k), 2):
                c = synth_cover(find_cover_pair(s, t))
                assert affine_separation_decision(c.groupoid, s, t).separated
                if k <= 4:
                    assert separates_exhaustive(to_cayley(c.groupoid), s, t).separated


def test_criterion_05_cycle_synthesis(criterion):
    with criterion(5, "cycle synthesis", 5.0):
        s = parse_term("(y0*y1)*(z0*(z1*y0))")
        t = parse_term("((z2*y1)*y2)*(z3*y2)")
        w = find_cycle(s, t)
        assert w.p == ("ll", "lr", "rr") and w.q == ("r", "", "r")
        f = w.class_map()
        assert f[0] == 0 and f[1] == f[2] == 1
        cert = synth_cycle(w)
        assert (
            cert.opsum.render()
            == "||3,ll,0|| + ||4,lr,1|| + ||4,rr,2|| + ||4,r,3||' + ||3,r,4||"
        )
        G = cert.groupoid
        # the lambda-sum of each term collapses to the register-4 component
        # of y1, with constants 0 and 1 respectively
        sel = np.zeros(G.width, dtype=np.uint8)
        for reg in (0, 1, 2):
            sel[G.position(reg)] = 1
        fs, ft = term_affine_form(G, s), term_affine_form(G, t)
        want = np.zeros(G.width, dtype=np.uint8)
        want[G.position(4)] = 1
        zero_block = np.zeros((G.width, G.width), dtype=np.uint8)
        for name in sorted(set(fs.vars) | set(ft.vars)):
            row_s = (sel @ fs.coeff.get(name, zero_block)) % 2
            row_t = (sel @ ft.coeff.get(name, zero_block)) % 2
            expected = want if name == "y1" else np.zeros(G.width, dtype=np.uint8)
            assert row_s.tolist() == expected.tolist()
            assert row_t.tolist() == expected.tolist()
        assert int(sel @ fs.const) % 2 == 0
        assert int(sel @ ft.const) % 2 == 1
        assert affine_separation_decision(G, s, t).separated
        plain = compile_opsum(cycle_opsum(w, tweak=False))
        rng = np.random.default_rng(5)
        fps, fpt = term_affine_form(plain, s), term_affine_form(plain, t)
        names = sorted(set(fps.vars) | set(fpt.vars))
        psel = np.zeros(plain.width, dtype=np.uint8)
        for reg in (0, 1, 2):
            psel[plain.position(reg)] = 1
        for _ in range(1000):
            env = {
                name: rng.integers(0, 2, size=plain.width, dtype=np.uint8)
                for name in names
            }
            par_s = int(psel @ fps.evaluate(env)) % 2
            par_t = int(psel @ fpt.evaluate(env)) % 2
            assert par_s == par_t


def test_criterion_06_unification(criterion):
    with criterion(6, "unification", 1.0):
        s1, t1 = parse_term("(x*y)*(z*y)"), parse_term("z*((x*y)*(x*x))")
        out = unify(s1, t1)
        assert out.unifiable
        merged = "(x*(x*x))*((x*(x*x))*(x*x))"
        assert render_term(apply_subst(out.substitution, s1)) == merged
        assert render_term(apply_subst(out.substitution, t1)) == merged
        out2 = unify(
            parse_term("(x*y)*(z*w)"), parse_term("((w*u)*x)*((y*v)*z)")
        )
        assert not out2.unifiable
        assert any(step.rule == "Check" for step in out2.trace)
        out3 = unify(parse_term("(x*y)*(z*y)"), parse_term("z*((y*y)*(x*x))"))
        assert not out3.unifiable
        checks = [st for st in out3.trace if st.rule == "Check"]
        assert checks and checks[0].consumed.render() == "x = x*x"


def _hand_built_seed():
    alloc = RegisterAllocator()
    alloc.reserve((0, 1, 2, 3, 4))
    return op_sum(
        [
            basic_op(3, "l", 0, allocator=alloc),
            basic_op(3, "rl", 1, allocator=alloc),
            basic_op(4, "rr", 2, allocator=alloc),
            basic_op(4, "l", 3, allocator=alloc),
            basic_op(4, "l", 4, tweaked=True, allocator=alloc),
        ]
    )


def test_criterion_07_search_fallback(criterion):
    with criterion(7, "search fallback", 60.0):
        s = parse_term("(x*y)*(z*y)")
        t = parse_term("z*((y*y)*(x*x))")
        seed = _hand_built_seed()
        cert = search_separator(s, t, budget=1, seeds=[seed])
        assert cert is not None and cert.opsum is seed
        assert cert.lam == frozenset({0, 1, 2})
        table = to_cayley(cert.groupoid)
        assert table.n <= 2**7
        assert separates_exhaustive(table, s, t).separated


def test_criterion_08_k_antiassociative_builder(criterion):
    with criterion(8, "k-antiassociative builder", 120.0):
        for k, factors in ((3, 1), (4, 10), (5, 91)):
            G, certs = build_k_antiassociative(k)
            assert len(certs) == factors
            for (s, t), cert in certs:
                assert affine_separation_decision(cert.groupoid, s, t).separated
                if k == 4:
                    assert separates_exhaustive(to_cayley(cert.groupoid), s, t).separated
        G3, _ = build_k_antiassociative(3)
        assert is_k_antiassociative(to_cayley(G3), 3).antiassociative


def test_criterion_09_oracle_equivalence(criterion):
    with criterion(9, "oracle equivalence", 120.0):
        for G, s, t in itertools.islice(dense.random_cross_checks(random.Random(0)), 500):
            assert cross_check(G, s, t)
        # enumerable instances from the construction criteria
        for s, t in itertools.combinations(enumerate_ordered_terms(4), 2):
            c = synth_cover(find_cover_pair(s, t))
            assert cross_check(c.groupoid, s, t)
        s7, t7 = parse_term("(x*y)*(z*y)"), parse_term("z*((y*y)*(x*x))")
        assert cross_check(compile_opsum(_hand_built_seed()), s7, t7)


def test_criterion_10_lemma_harness(criterion):
    with criterion(10, "transfer lemma harness", 60.0):
        report = lemma_harness(trials=1000, seed=0)
        assert report.ok, report.failures
        assert report.plain_checked + report.tweaked_checked == 1000
        assert report.plain_checked > 0 and report.tweaked_checked > 0


def test_criterion_11_census_consistency(criterion):
    with criterion(11, "census consistency", 240.0):
        for n in (2, 3):
            assert census_pruned(n) == census_unpruned(n)
        assert census(2).antiassociative_count == 2
        assert census(3).antiassociative_count == 52
        for workers in (1, 2, 4):
            assert census_pruned(3, workers=workers) == 52


@pytest.mark.long
def test_criterion_11_census_n4(criterion):
    with criterion(11, "census n=4 (long)", 3600.0):
        report = census(4, workers=4, long_run=True)
        assert report.antiassociative_count == 421560
