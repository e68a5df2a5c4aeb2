import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cover_reference as ref
import dense_reference as dense
import termsep
from termsep.synth import find_cover_pair
from termsep.unify import unify
from test_unify import chain_pair
from termsep.terms import (
    InvalidPathError,
    Mul,
    ParseError,
    Term,
    Var,
    catalan,
    enumerate_ordered_terms,
    fold,
    is_proper_prefix,
    occurrences,
    parse_term,
    render_term,
    replace_leaves,
    shape_of,
    steps,
    subterm_at,
    var_key,
    variables,
)

SENTINEL = "χ"


def terms_strategy(max_leaves=8):
    names = st.sampled_from(["x", "y", "z", "x1", "x2", "w_3"])
    return st.recursive(
        names.map(Var), lambda sub: st.tuples(sub, sub).map(lambda p: Mul(*p)),
        max_leaves=max_leaves,
    )


class TestParsing:
    def test_single_variable(self):
        assert parse_term("x") == Var("x")

    def test_nested(self):
        assert parse_term("(x1*(x2*x3))") == Mul(Var("x1"), Mul(Var("x2"), Var("x3")))

    def test_pair_of_pairs(self):
        t = parse_term("((x*y)*(z*y))")
        assert t == Mul(Mul(Var("x"), Var("y")), Mul(Var("z"), Var("y")))
        assert parse_term(render_term(t)) == t

    def test_outer_parens_optional(self):
        assert parse_term("x*y") == parse_term("(x*y)")

    def test_whitespace_ignored(self):
        assert parse_term(" ( x * y ) ") == Mul(Var("x"), Var("y"))

    @pytest.mark.parametrize(
        "text, expected",
        [("(x)", "x"), ("((x*u))", "x*u"), ("(x)*u", "x*u"), ("((x))*(u*(v))", "x*(u*v)")],
    )
    def test_redundant_parentheses(self, text, expected):
        assert parse_term(text) == parse_term(expected)

    @pytest.mark.parametrize("text", ["x*y*z", "(x*y*z)", "()", "(x"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_term(text)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("(x*")
        assert err.value.position == 3

    def test_chi_alias(self):
        assert parse_term("chi") == Var(SENTINEL)

    @given(terms_strategy())
    def test_round_trip(self, t):
        assert parse_term(render_term(t)) == t

    def test_deep_combs_round_trip(self):
        right = Var("x5000")
        for i in range(4999, -1, -1):
            right = Mul(Var(f"x{i}"), right)
        text = render_term(right)
        assert text.startswith("x0*(x1*(x2*(") and text.endswith("*x5000" + ")" * 4999)
        assert parse_term(text) == right
        assert render_term(parse_term(text)) == text
        left = "(" * 4999 + "x0" + "".join(f"*x{i})" for i in range(1, 5000)) + "*x5000"
        assert render_term(parse_term(left)) == left

    def test_deep_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("(" * 5000 + "x")
        assert err.value.position == 5001
        assert str(err.value) == "expected ')' at position 5001"


class TestFold:
    def test_post_order_left_first_once_per_object(self):
        shared = parse_term("x*y")
        roots = [Mul(shared, Var("z")), Mul(Var("w"), shared)]
        seen = []

        def leaf(v):
            seen.append(v.name)
            return v.name

        def node(m, left, right):
            seen.append("*")
            return f"({left}{right})"

        assert fold(roots, leaf, node) == ["((xy)z)", "(w(xy))"]
        assert seen == ["x", "y", "*", "z", "*", "w", "*"]

    def test_replace_leaves_keeps_what_it_does_not_change(self):
        shared = parse_term("x*y")
        roots = [Mul(shared, parse_term("z*z")), Mul(Var("w"), shared)]
        assert replace_leaves(roots, lambda v: v) == roots
        assert all(a is b for a, b in zip(replace_leaves(roots, lambda v: v), roots))
        u = Var("u")
        out = replace_leaves(roots, lambda v: u if v.name == "x" else v)
        assert [render_term(t) for t in out] == ["(u*y)*(z*z)", "w*(u*y)"]
        assert out[0].left is out[1].right
        assert out[0].right is roots[0].right


def steps_by_fold(terms):
    """terms.steps as a fold with one callback per node, kept as the
    reference for its loop."""
    prog = []

    def push(step):
        prog.append(step)
        return len(prog) - 1

    roots = fold(terms, lambda v: push(v.name), lambda m, left, right: push((left, right)))
    return prog, roots


class TestSteps:
    def test_same_program_as_the_fold(self):
        sweep = ref.sweep_terms()
        assert steps(sweep) == steps_by_fold(sweep)
        assert steps(sweep[::-1]) == steps_by_fold(sweep[::-1])
        rng = random.Random(7)
        for _ in range(300):
            roots = [dense.random_dag(rng, rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
            roots += [rng.choice(roots)] + [r.left for r in roots if isinstance(r, Mul)]
            assert steps(roots) == steps_by_fold(roots)
        assert steps([]) == ([], [])

    def test_post_order_shared_between_terms(self):
        s, t = parse_term("x*(y*x)"), parse_term("(y*x)*x")
        assert steps([s, t]) == (["x", "y", (1, 0), (0, 2), (2, 0)], [3, 4])

    def test_one_step_per_distinct_subterm(self):
        a, b = Var("x"), Var("x")
        for _ in range(40):  # 2**40 leaves, built apart
            a, b = Mul(a, a), Mul(b, b)
        prog, roots = steps([a, b])
        assert len(prog) == 41 and roots == [40, 40]


class TestEquality:
    @staticmethod
    def comb(depth: int, last: str = "y") -> Term:
        t = Var(last)
        for _ in range(depth):
            t = Mul(Var("y"), t)
        return t

    def test_deep_combs_built_apart(self):
        a, b = self.comb(2000), self.comb(2000)
        assert a is b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != self.comb(2000, last="z")
        assert a != self.comb(1999)
        assert repr(a) == f"parse_term({render_term(a)!r})"
        assert eval(repr(a)) == a

    def test_shared_subterms_compared_once(self):
        a, b = Var("x"), Var("x")
        for _ in range(24):  # 2**24 leaves, 25 distinct nodes a side
            a, b = Mul(a, a), Mul(b, b)
        start = time.perf_counter()
        assert a == b and hash(a) == hash(b)
        assert Mul(a, Var("x")) != Mul(b, Var("y"))
        assert time.perf_counter() - start < 1.0

    def test_class_mismatch(self):
        assert Mul(Var("x"), Var("y")) != Var("x")
        assert Var("x") != Mul(Var("x"), Var("y"))
        assert Mul(Var("x"), Var("y")) != "x*y"


class TestInterning:
    def test_deep_comb_is_one_object_and_freed_when_dropped(self):
        start = len(Mul._live)
        # "deep" is under every node, so no node exists before the first comb
        a = TestEquality.comb(100_000, last="deep")
        assert len(Mul._live) == start + 100_000
        b = TestEquality.comb(100_000, last="deep")
        assert a is b and len(Mul._live) == start + 100_000
        del a, b
        assert len(Mul._live) == start

    def test_immutable_and_pickled_as_itself(self):
        t = parse_term("x*(y*x)")
        with pytest.raises(AttributeError):
            t.left = Var("y")
        with pytest.raises(AttributeError):
            del Var("x").name
        assert t.left is Var("x") and pickle.loads(pickle.dumps(t)) is t

    def test_variables_freed_when_dropped(self):
        start = len(Var._live)
        t = parse_term("(fresh1*fresh2)*fresh1")
        assert len(Var._live) == start + 2
        del t
        assert len(Var._live) == start and "fresh1" not in Var._live

    def test_term_held_by_garbage_cycle_freed_by_collector(self):
        gc.collect()
        gc.disable()
        try:
            vars_start, muls_start = len(Var._live), len(Mul._live)
            cycle: list = [parse_term("cyc1*(cyc2*cyc1)")]
            cycle.append(cycle)
            del cycle
            assert (len(Var._live), len(Mul._live)) == (vars_start + 2, muls_start + 2)
            # the collector clears the root's weak reference before its
            # __del__ runs, so the root finds its entry dead
            gc.collect()
            assert (len(Var._live), len(Mul._live)) == (vars_start, muls_start)
            assert "cyc1" not in Var._live and "cyc2" not in Var._live
        finally:
            gc.enable()
        t = parse_term("cyc1*(cyc2*cyc1)")
        assert Mul._live[(t.left, t.right)]() is t and Var._live["cyc2"]() is t.right.left
        assert parse_term("cyc1*(cyc2*cyc1)") is t

    def test_entry_taken_during_collection_is_kept(self):
        # the collector clears every weak reference to its garbage before it
        # runs any callback or finaliser, so a callback can build a new node
        # with a dying node's key before the dying node's __del__ runs
        reborn = []
        gc.collect()
        gc.disable()
        try:
            cycle: list = [parse_term("re1*re2")]
            cycle.append(cycle)
            watch = weakref.ref(cycle[0], lambda _: reborn.append(parse_term("re1*re2")))
            del cycle
            gc.collect()
        finally:
            gc.enable()
        (t,) = reborn
        assert watch() is None
        assert Mul._live[(t.left, t.right)]() is t and parse_term("re1*re2") is t

    def test_seeded_build_and_drop_leaves_only_live_entries(self):
        rng = random.Random(5)
        held = []
        for step in range(3000):
            t = dense.random_dag(rng, rng.randint(1, 10), "".join(rng.sample("pqrstuvw", 3)))
            if rng.random() < 0.3:
                held.append(t)
            if held and rng.random() < 0.25:
                held.pop(rng.randrange(len(held)))
            if rng.random() < 0.1:  # garbage for the collector
                cycle: list = [t]
                cycle.append(cycle)
            if step % 700 == 0:
                gc.collect()
        del t, cycle
        gc.disable()
        try:
            for table, key_of in (
                (Var._live, lambda v: v.name),
                (Mul._live, lambda m: (m.left, m.right)),
            ):
                for key, r in table.items():
                    node = r()
                    assert node is not None and key_of(node) == key
        finally:
            gc.enable()
        assert all(t is Mul(t.left, t.right) for t in held if isinstance(t, Mul))

    def test_exit_while_holding_terms_writes_nothing_to_stderr(self):
        # "early" is registered before termsep.terms, so at exit its globals
        # are cleared after those of termsep.terms, as a test runner's
        # modules are: its terms die when the module globals of
        # termsep.terms are already None
        code = (
            "import sys, types\n"
            "early = sys.early = sys.modules['early'] = types.ModuleType('early')\n"
            "import termsep.terms as terms\n"
            "early.terms = terms\n"
            "t = terms.Var('y')\n"
            "for _ in range(2000):\n"
            "    t = terms.Mul(terms.Var('x'), t)\n"
            "early.t = t\n"
            "cycle = [terms.parse_term('x*(y*z)')]\n"
            "cycle.append(cycle)\n"
        )
        src = str(Path(termsep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (out.returncode, out.stderr) == (0, "")


class TestOccurrences:
    def test_leaf(self):
        assert occurrences(Var("x")) == [("", "x")]

    def test_five_variable_example(self):
        s = parse_term("(x1*(x2*x3))*(x4*x5)")
        assert [p for p, _ in occurrences(s)] == ["ll", "lrl", "lrr", "rl", "rr"]

    def test_pair(self):
        assert occurrences(parse_term("x*y")) == [("l", "x"), ("r", "y")]

    @given(terms_strategy())
    def test_leftmost_path_is_all_l(self, t):
        first_path, _ = occurrences(t)[0]
        assert set(first_path) <= {"l"}

    @given(terms_strategy())
    def test_every_path_addresses_its_leaf(self, t):
        for path, name in occurrences(t):
            assert subterm_at(t, path) == Var(name)


class TestVariables:
    @staticmethod
    def by_leaves(t: Term) -> list[str]:
        return sorted({name for _, name in occurrences(t)}, key=var_key)

    def test_sweep_terms_and_random_dags(self):
        for t in ref.sweep_terms():
            assert variables(t) == self.by_leaves(t)
        rng = random.Random(13)
        for _ in range(300):
            t = dense.random_dag(rng, rng.randint(1, 12), "".join(rng.sample("xyzuvw", 4)))
            assert variables(t) == self.by_leaves(t)
        assert variables(parse_term("(x10*x2)*(x1*(y*x2))")) == ["y", "x1", "x2", "x10"]

    def test_shared_subterms_walked_once(self):
        t = Var("x")
        for _ in range(40):  # 2**40 leaves, 41 distinct nodes
            t = Mul(t, t)
        start = time.perf_counter()
        assert variables(t) == ["x"]
        assert variables(Mul(t, Mul(Var("y"), t))) == ["x", "y"]
        assert time.perf_counter() - start < 0.1


class TestTreeWalks:
    def test_leave_no_reference_cycles(self):
        t = parse_term("(x1*(x2*x3))*(x4*x5)")
        gc.collect()
        gc.disable()
        try:
            occurrences(t)
            render_term(t)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deep_left_comb(self):
        t = Var("x0")
        for i in range(1, 10_001):
            t = Mul(t, Var(f"x{i}"))
        occ = occurrences(t)
        assert len(occ) == 10_001
        assert occ[0] == ("l" * 10_000, "x0")
        assert occ[1] == ("l" * 9_999 + "r", "x1")
        assert occ[-1] == ("r", "x10000")
        text = render_term(t)
        assert text.startswith("(" * 9_999 + "x0*x1)*x2)")
        assert text.endswith(")*x9999)*x10000")


def render_walk(t: Term) -> str:
    """render_term as one walk over every leaf of the tree, shared
    subterms spelled out each time: the reference for its splicing."""
    out = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(item.name)
        else:
            stack += (")", item.right, "*", item.left, "(")
    text = "".join(out)
    return text[1:-1] if isinstance(t, Mul) else text


class TestRenderShared:
    def test_binding_chains(self):
        s, t = chain_pair(19)
        bindings = unify(s, t).substitution
        assert len(bindings) == 20
        for term in bindings.values():
            assert render_term(term) == render_walk(term)
        assert render_term(bindings["a19"]).count("a0") == 2**19

    def test_random_dags_and_sweep_terms(self):
        rng = random.Random(11)
        for _ in range(300):
            t = dense.random_dag(rng, rng.randint(1, 14))
            assert render_term(t) == render_walk(t)
            assert parse_term(render_term(t)) is t
        for t in ref.sweep_terms():
            assert render_term(t) == render_walk(t)

    def test_deep_combs(self):
        x = left = right = Var("x")
        for _ in range(20_000):
            left, right = Mul(left, x), Mul(x, right)
        both = Mul(left, Mul(right, left))
        for t in (left, right, both):
            assert render_term(t) == render_walk(t)

    def test_render_bound(self):
        t = Var("x")
        for _ in range(20):
            t = Mul(t, t)
        # 21 distinct subterms: each is rendered once (the walk over all
        # 2**21 - 1 nodes takes about 2 s)
        start = time.perf_counter()
        assert len(render_term(t)) == 2**20 + (2**20 - 1) * 3 - 2
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ValueError, match="1048577 leaves exceed the render bound"):
            render_term(Mul(t, Var("y")))

    def test_leaves_no_reference_cycles(self):
        t = dense.random_dag(random.Random(3), 12)
        gc.collect()
        gc.disable()
        try:
            render_term(t)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSubterm:
    def test_worked_example(self):
        s = parse_term("(x1*(x2*x3))*(x4*x5)")
        assert render_term(subterm_at(s, "lr")) == "x2*x3"

    def test_root(self):
        t = parse_term("(x*y)*z")
        assert subterm_at(t, "") is t

    def test_invalid_path(self):
        with pytest.raises(InvalidPathError):
            subterm_at(parse_term("x*y"), "rl")


class TestShape:
    def test_structure_only(self):
        assert shape_of(parse_term("x*y")) == shape_of(parse_term("x*x"))
        assert shape_of(parse_term("(x*y)*z")) == shape_of(parse_term("(y*y)*x"))

    def test_idempotent(self):
        t = parse_term("(x*y)*z")
        assert shape_of(shape_of(t)) == shape_of(t)


class TestCatalan:
    def test_small_values(self):
        assert [catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_enumeration(self, k):
        assert len(enumerate_ordered_terms(k)) == catalan(k - 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestOrderedTerms:
    def test_single(self):
        assert enumerate_ordered_terms(1) == [Var("x1")]

    def test_four_matches_customary_listing(self):
        expected = [
            "((x1*x2)*x3)*x4",
            "(x1*(x2*x3))*x4",
            "(x1*x2)*(x3*x4)",
            "x1*((x2*x3)*x4)",
            "x1*(x2*(x3*x4))",
        ]
        assert [render_term(t) for t in enumerate_ordered_terms(4)] == expected

    def test_five_all_distinct(self):
        terms = enumerate_ordered_terms(5)
        assert len(terms) == 14
        assert len(set(terms)) == 14

    @pytest.mark.parametrize("k", range(1, 11))
    def test_counts_and_distinctness(self, k):
        terms = enumerate_ordered_terms(k)
        assert len(set(terms)) == len(terms) == catalan(k - 1)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_variables_in_order(self, k):
        for t in enumerate_ordered_terms(k):
            names = [name for _, name in occurrences(t)]
            assert names == [f"x{i}" for i in range(1, k + 1)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_ordered_terms(0)


class TestLeftmostDisagreement:
    """The paper's lemma: two distinct ordered terms have a leftmost
    variable x_m whose paths differ, and one of its two paths is a proper
    prefix of the other.  find_cover_pair finds exactly that cover."""

    @staticmethod
    def disagreement(s, t):
        """(m, path of x_m in s, path in t) from find_cover_pair's witness."""
        w = find_cover_pair(s, t)
        paths = {w.shallow_side: w.q, w.deep_side: w.p}
        return int(w.variable[1:]), paths["s"], paths["t"]

    def test_t1_t2(self):
        t1, t2, t3, _, t5 = enumerate_ordered_terms(4)
        assert self.disagreement(t1, t2) == (1, "lll", "ll")
        assert self.disagreement(t3, t5) == (1, "ll", "l")

    def test_associativity_pair(self):
        s, t = enumerate_ordered_terms(3)
        assert self.disagreement(s, t) == (1, "ll", "l")

    def test_equal_terms_have_no_cover(self):
        t = enumerate_ordered_terms(3)[0]
        assert find_cover_pair(t, t) is None

    @pytest.mark.parametrize("k", range(3, 8))
    def test_proper_prefix_property_exhaustive(self, k):
        for s, t in itertools.combinations(enumerate_ordered_terms(k), 2):
            assert find_cover_pair(s, t) == ref.leftmost_cover(s, t)
