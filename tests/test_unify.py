import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import random_term
from termsep.cayley import deranged_groupoid, separations
from termsep.synth import decide_finite_separability
from termsep.terms import Mul, Var, fold, parse_term, render_term, shape_of, variables
from termsep.unify import (
    apply_subst,
    collapse_to_one_variable,
    decide_abstract_separability,
    occurs_in,
    substitute,
    unify,
)


def names(*texts):
    return [parse_term(t) for t in texts]


class TestSubstitution:
    def test_substitute_single(self):
        t = parse_term("(x*y)*x")
        assert render_term(substitute(t, "x", parse_term("u*u"))) == "((u*u)*y)*(u*u)"

    def test_apply_subst_simultaneous(self):
        # both bindings fire on the original term, not on each other's output
        t = parse_term("x*y")
        out = apply_subst({"x": Var("y"), "y": Var("x")}, t)
        assert render_term(out) == "y*x"

    def test_occurs(self):
        assert occurs_in("x", parse_term("(u*v)*(w*x)"))
        assert not occurs_in("z", parse_term("(u*v)*(w*x)"))


class TestUnifyExamples:
    def test_solvable_pair(self):
        s, t = names("(x*y)*(z*y)", "z*((x*y)*(x*x))")
        out = unify(s, t)
        assert out.unifiable
        assert {n: render_term(u) for n, u in out.substitution.items()} == {
            "y": "x*x",
            "z": "x*(x*x)",
        }

    def test_unified_instance(self):
        s, t = names("(x*y)*(z*y)", "z*((x*y)*(x*x))")
        out = unify(s, t)
        inst = apply_subst(out.substitution, s)
        assert render_term(inst) == "(x*(x*x))*((x*(x*x))*(x*x))"
        assert render_term(apply_subst(out.substitution, t)) == render_term(inst)

    def test_cycle_pair_fails_check(self):
        out = unify(*names("(x*y)*(z*w)", "((w*u)*x)*((y*v)*z)"))
        assert not out.unifiable
        assert any(step.rule == "Check" for step in out.trace)

    def test_acyclic_pair_fails_check(self):
        out = unify(*names("(x*y)*(z*y)", "z*((y*y)*(x*x))"))
        assert not out.unifiable
        failing = [step for step in out.trace if step.rule == "Check"]
        assert failing and failing[0].consumed.render() == "x = x*x"

    def test_occurs_check_fails_direct(self):
        out = unify(*names("x", "x*x"))
        assert not out.unifiable
        assert out.trace[-1].rule == "Check"

    def test_shape_clash_is_not_failure_here(self):
        # distinct variables always unify
        out = unify(Var("x"), Var("y"))
        assert out.unifiable and len(out.substitution) == 1

    def test_identical_terms(self):
        out = unify(*names("(x*y)*x", "(x*y)*x"))
        assert out.unifiable and out.substitution == {}

    def test_trace_rules_are_known(self):
        out = unify(*names("(x*y)*(y*x)", "(u*v)*w"))
        assert out.unifiable
        allowed = {"Decompose", "Coalesce", "Check", "Eliminate"}
        assert {step.rule for step in out.trace} <= allowed

    def test_to_json_shape(self):
        doc = unify(*names("(x*y)*(z*y)", "z*((x*y)*(x*x))")).to_json()
        assert doc["result"] == "unifier"
        assert set(doc["bindings"]) == {"y", "z"}
        assert all({"rule", "consumed"} <= set(s) for s in doc["trace"])


def one_variable_terms(max_leaves):
    """All terms over the single variable x with at most max_leaves leaves."""
    by_size = {1: [Var("x")]}
    for size in range(2, max_leaves + 1):
        by_size[size] = [
            Mul(a, b)
            for lsize in range(1, size)
            for a in by_size[lsize]
            for b in by_size[size - lsize]
        ]
    return [t for ts in by_size.values() for t in ts]


def terms_over(names_list, max_leaves):
    by_size = {1: [Var(n) for n in names_list]}
    for size in range(2, max_leaves + 1):
        by_size[size] = [
            Mul(a, b)
            for lsize in range(1, size)
            for a in by_size[lsize]
            for b in by_size[size - lsize]
        ]
    return [t for ts in by_size.values() for t in ts]


def brute_force_inseparable(s, t, instance_leaves=5):
    """Search for a common instance by substituting one-variable terms."""
    vs = sorted(set(variables(s)) | set(variables(t)), key=lambda n: (len(n), n))
    candidates = one_variable_terms(instance_leaves)
    for choice in itertools.product(candidates, repeat=len(vs)):
        subst = dict(zip(vs, choice))
        if render_term(apply_subst(subst, s)) == render_term(apply_subst(subst, t)):
            return True
    return False


class TestAbstractSeparability:
    def test_collapse(self):
        assert render_term(collapse_to_one_variable(parse_term("(x*y)*z"))) == "(x*x)*x"

    def test_not_separable_with_witness(self):
        s, t = names("(x*y)*z", "(x*x)*(x*x)")
        verdict = decide_abstract_separability(s, t)
        assert not verdict.separable
        merged_s = apply_subst(verdict.witness, s)
        merged_t = apply_subst(verdict.witness, t)
        assert render_term(merged_s) == render_term(merged_t)
        assert set(variables(merged_s)) <= {"x"} or len(set(variables(merged_s))) == 1

    def test_separable_pair(self):
        assert decide_abstract_separability(*names("x", "x*x")).separable

    def test_witness_uses_one_variable(self):
        verdict = decide_abstract_separability(*names("u*(v*w)", "a*b"))
        assert not verdict.separable
        base = set()
        for u in verdict.witness.values():
            base |= set(variables(u))
        assert len(base) == 1

    def test_agrees_with_brute_force_small(self):
        # every pair with at most 3 leaves over at most 2 variables
        pool = terms_over(["x", "y"], 3)
        for s, t in itertools.combinations(pool, 2):
            got = decide_abstract_separability(s, t)
            assert got.separable == (not brute_force_inseparable(s, t)), (
                render_term(s),
                render_term(t),
            )

    @pytest.mark.parametrize(
        "a,b,leaves",
        [
            ("(x*y)*z", "x*(y*z)", 4),
            ("(x*y)*(z*w)", "((w*u)*x)*((y*v)*z)", 2),
            ("x*(y*(z*x))", "((x*y)*z)*x", 4),
            ("(x*y)*z", "(x*x)*(x*x)", 4),
        ],
    )
    def test_sampled_wider_pairs(self, a, b, leaves):
        # budget keeps the product space small; large enough to hold every
        # unifier binding for the solvable rows
        s, t = names(a, b)
        got = decide_abstract_separability(s, t)
        assert got.separable == (not brute_force_inseparable(s, t, leaves))


def _term_strategy(depth=3):
    leaves = st.sampled_from([Var(n) for n in "xyzu"])
    return st.recursive(
        leaves, lambda inner: st.builds(Mul, inner, inner), max_leaves=2**depth
    )


class TestConsistencyWithSynthesis:
    @settings(max_examples=150, deadline=None)
    @given(_term_strategy(), _term_strategy())
    def test_tfae_directions_agree(self, s, t):
        abstract = decide_abstract_separability(s, t)
        concrete = decide_finite_separability(s, t)
        if not abstract.separable:
            assert concrete.verdict == "not_separable"
        else:
            assert concrete.verdict in ("separated", "unknown")

    @settings(max_examples=80, deadline=None)
    @given(_term_strategy())
    def test_same_shape_terms_never_separable(self, s):
        t = collapse_to_one_variable(s)
        if shape_of(s) == shape_of(t):
            assert not decide_abstract_separability(s, t).separable


class TestBindings:
    def test_bindings_come_back_fully_applied(self):
        rng = random.Random(11)
        unifiable = 0
        for _ in range(3000):
            s = random_term(rng, rng.randint(1, 8), "xyzuvw")
            t = random_term(rng, rng.randint(1, 8), "xyzuvw")
            out = unify(s, t)
            if not out.unifiable:
                continue
            unifiable += 1
            bound = set(out.substitution)
            for b in out.substitution.values():
                assert not bound & set(variables(b))
                assert apply_subst(out.substitution, b) == b
            assert apply_subst(out.substitution, s) == apply_subst(out.substitution, t)
        assert unifiable > 300


def chain_pair(n):
    """a1*(a2*(...*(an*y))) against (a0*a0)*((a1*a1)*(...*z)): a_i is bound
    to a term of 2**i leaves."""
    a = [Var(f"a{i}") for i in range(n + 1)]
    s, t = Var("y"), Var("z")
    for i in range(n, 0, -1):
        s = Mul(a[i], s)
    for i in range(n - 1, -1, -1):
        t = Mul(Mul(a[i], a[i]), t)
    return s, t


def names_in(t):
    # a fold visits each shared node once, where variables() walks the tree
    return fold([t], lambda v: frozenset([v.name]), lambda m, left, right: left | right)[0]


class TestSharedSubterms:
    def test_long_binding_chain(self):
        s, t = chain_pair(40)
        start = time.perf_counter()
        result = decide_finite_separability(s, t)
        assert time.perf_counter() - start < 1.0
        assert result.verdict == "not_separable"
        witness = result.unifier.witness
        merged_s, merged_t = apply_subst(witness, s), apply_subst(witness, t)
        assert merged_s == merged_t
        assert names_in(merged_s) == {"x"}
        # the bindings have 2**40 leaves, so they must share their subterms
        assert names_in(witness["a40"]) == {"x"}

    def test_deep_comb_needs_no_recursion(self):
        comb = Var("x")
        for _ in range(5000):
            comb = Mul(comb, Var("y"))
        spine = "(" * 4999 + "z" + "*y)" * 4999 + "*y"
        assert render_term(apply_subst({"x": Var("z")}, comb)) == spine
        assert render_term(substitute(comb, "x", Var("z"))) == spine
        assert occurs_in("x", comb) and not occurs_in("z", comb)
        assert names_in(collapse_to_one_variable(comb)) == {"x"}
        assert render_term(shape_of(comb)).count("χ") == 5001
        # x*y = x+1 (mod 2): the comb is x + 5000 = x
        G = deranged_groupoid(2, [1, 0], "LEFT")
        assert not separations(G, [(comb, Var("x"))])[0].separated

    def test_equal_deep_combs_built_apart(self):
        def comb():
            t = Var("y")
            for _ in range(2000):
                t = Mul(Var("y"), t)
            return t

        outcome = unify(Mul(comb(), Var("z")), Mul(comb(), Var("w")))
        assert outcome.substitution == {"z": Var("w")}

    def test_equal_chains_built_apart(self):
        # a0 = b0, a_i = a_(i-1)*a_(i-1), b_i = b_(i-1)*b_(i-1), a_n = b_n:
        # the last statement compares two equal bindings of 2**n leaves
        # that share no node with each other
        n = 24
        a = [Var(f"a{i}") for i in range(n + 1)]
        b = [Var(f"b{i}") for i in range(n + 1)]
        lhs, rhs = [a[0]], [b[0]]
        for i in range(1, n + 1):
            lhs += (a[i], b[i])
            rhs += (Mul(a[i - 1], a[i - 1]), Mul(b[i - 1], b[i - 1]))
        s, t = a[n], b[n]
        for x, y in zip(reversed(lhs), reversed(rhs)):
            s, t = Mul(x, s), Mul(y, t)
        start = time.perf_counter()
        outcome = unify(s, t)
        assert time.perf_counter() - start < 1.0
        assert outcome.unifiable
        assert outcome.substitution[f"a{n}"] == outcome.substitution[f"b{n}"]
