import functools
import itertools
import random

import numpy as np
import pytest

import dense_reference as dense
from termsep.cayley import eval_cayley
from termsep.terms import parse_term, variables
from termsep.vecops import (
    BasicOp,
    DuplicateTargetError,
    RegisterAllocator,
    VecGroupoid,
    affine_groupoid,
    basic_op,
    compile_opsum,
    direct_sum,
    eval_term_vec,
    eval_vec,
    op_sum,
    term_affine_form,
    to_cayley,
)


def cover_opsum():
    alloc = RegisterAllocator()
    alloc.reserve((0, 1))
    return op_sum(
        [
            basic_op(1, "l", 0, allocator=alloc),
            basic_op(1, "l", 1, tweaked=True, allocator=alloc),
        ]
    )


class TestBasicOp:
    def test_two_step_path(self):
        alloc = RegisterAllocator()
        op = basic_op(2, "lr", 0, allocator=alloc)
        rendered = [eq.render() for eq in op.equations()]
        a = op.internal[0]
        assert rendered == [f"z[0] := x[{a}]", f"z[{a}] := y[2]"]

    def test_single_step(self):
        op = basic_op(1, "l", 0)
        assert [eq.render() for eq in op.equations()] == ["z[0] := x[1]"]

    def test_tweak_hits_first_equation_only(self):
        op = basic_op(1, "l", 1, tweaked=True)
        assert [eq.render() for eq in op.equations()] == ["z[1] := x[1] + 1"]
        alloc = RegisterAllocator()
        op2 = basic_op(2, "lr", 0, tweaked=True, allocator=alloc)
        flips = [eq.flip for eq in op2.equations()]
        assert flips == [True, False]

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            BasicOp(1, "", 0)

    def test_internals_are_fresh(self):
        alloc = RegisterAllocator()
        alloc.reserve(range(5))
        op1 = basic_op(3, "ll", 0, allocator=alloc)
        op2 = basic_op(4, "lr", 1, allocator=alloc)
        assert not (set(op1.internal) & set(op2.internal))
        assert min(op1.internal) >= 5


class TestOpSum:
    def test_valid_cover_pair(self):
        assert len(cover_opsum().summands) == 2

    def test_duplicate_target(self):
        alloc = RegisterAllocator()
        alloc.reserve((0, 1, 2))
        with pytest.raises(DuplicateTargetError, match="register 0"):
            op_sum(
                [
                    basic_op(1, "l", 0, allocator=alloc),
                    basic_op(2, "r", 0, allocator=alloc),
                ]
            )

    def test_five_summand_sum_is_valid(self):
        alloc = RegisterAllocator()
        alloc.reserve(range(6))
        ops = [
            basic_op(3, "ll", 0, allocator=alloc),
            basic_op(4, "lr", 1, allocator=alloc),
            basic_op(4, "rr", 2, allocator=alloc),
            basic_op(4, "r", 3, tweaked=True, allocator=alloc),
            basic_op(3, "r", 4, allocator=alloc),
        ]
        assert len(op_sum(ops).summands) == 5


class TestCompile:
    def test_cover_pair_matrices(self):
        G = compile_opsum(cover_opsum())
        assert G.indices == (0, 1)
        assert G.A.tolist() == [[0, 1], [0, 1]]
        assert not G.B.any()
        assert G.c.tolist() == [0, 1]

    def test_transfer_tuple_semantics(self):
        alloc = RegisterAllocator()
        opsum = op_sum([basic_op(2, "lr", 0, allocator=alloc)])
        G = compile_opsum(opsum)
        a = opsum.summands[0].internal[0]
        assert G.indices == (0, 2, a)
        # <x[0],x[a],x[2]> * <y[0],y[a],y[2]> = <x[a],y[2],0> in index order 0,2,a
        x = np.array([1, 0, 1], dtype=np.uint8)  # x[0]=1, x[2]=0, x[a]=1
        y = np.array([0, 1, 0], dtype=np.uint8)
        z = eval_vec(G, x, y)
        assert z.tolist() == [1, 0, 1]  # z[0]=x[a]=1, z[2]=0, z[a]=y[2]=1

    def test_empty_sum(self):
        G = compile_opsum(op_sum([]))
        assert G.width == 0
        assert to_cayley(G).n == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_equation_interpretation(self, seed):
        rng = random.Random(seed)
        alloc = RegisterAllocator()
        ops = []
        used = set()
        for _ in range(rng.randint(1, 3)):
            p = "".join(rng.choice("lr") for _ in range(rng.randint(1, 3)))
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            alloc.reserve((m, n))
            op = basic_op(m, p, n, rng.random() < 0.5, alloc)
            targets = {eq.target for eq in op.equations()}
            if targets & used:
                continue
            used |= targets
            ops.append(op)
        if not ops:
            return
        opsum = op_sum(ops)
        G = compile_opsum(opsum)
        regs = sorted(opsum.registers())
        if G.width > 6:
            space = [tuple(rng.randrange(2) for _ in regs) for _ in range(64)]
        else:
            space = list(itertools.product((0, 1), repeat=len(regs)))
        for xbits in space[:32]:
            for ybits in space[:32]:
                x = dict(zip(regs, xbits))
                y = dict(zip(regs, ybits))
                direct = dense.eval_opsum_direct(opsum, x, y)
                matrix = eval_vec(
                    G,
                    np.array([x[r] for r in G.indices], dtype=np.uint8),
                    np.array([y[r] for r in G.indices], dtype=np.uint8),
                )
                assert [direct[r] for r in G.indices] == matrix.tolist()


class TestAffineGroupoid:
    @staticmethod
    def worked_example_maps():
        alpha = np.zeros((6, 6), dtype=np.uint8)
        for dst, src in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 3), (5, 4)]:
            alpha[dst, src] = 1
        beta = np.zeros((6, 6), dtype=np.uint8)
        for dst, src in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]:
            beta[dst, src] = 1
        c = np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8)
        return alpha, beta, c

    def test_matrix_composition_example(self):
        alpha, beta, c = self.worked_example_maps()
        ab_c = (alpha @ beta @ c) % 2
        assert ab_c.tolist() == [1, 1, 0, 1, 1, 0]
        assert ((alpha @ ab_c) % 2).tolist() == [1, 1, 1, 1, 1, 1]

    def test_terms_at_zero(self):
        alpha, beta, c = self.worked_example_maps()
        G = affine_groupoid(alpha, beta, c)
        s = parse_term("((v*w)*(x*y))*z")
        t = parse_term("((v*(w*x))*y)*z")
        zero = {name: np.zeros(6, dtype=np.uint8) for name in "vwxyz"}
        assert eval_term_vec(G, s, zero).tolist() == [0, 1, 1, 1, 1, 0]
        assert eval_term_vec(G, t, zero).tolist() == [0, 1, 0, 1, 1, 1]

    def test_constant_zero_operation(self):
        G = affine_groupoid(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        assert eval_vec(G, [1, 1], [1, 0]).tolist() == [0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine_groupoid(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(2))


class TestEvalVec:
    def test_cover_groupoid(self):
        G = compile_opsum(cover_opsum())
        assert eval_vec(G, [0, 1], [1, 1]).tolist() == [1, 0]

    def test_zero_args_give_constant(self):
        G = compile_opsum(cover_opsum())
        assert eval_vec(G, [0, 0], [0, 0]).tolist() == G.c.tolist()

    def test_length_mismatch(self):
        G = compile_opsum(cover_opsum())
        with pytest.raises(ValueError):
            eval_vec(G, [0], [0, 0])


class TestTermAffineForm:
    def test_leaf(self):
        G = compile_opsum(cover_opsum())
        form = term_affine_form(G, parse_term("x"))
        assert form.coeff["x"].tolist() == np.eye(2, dtype=int).tolist()
        assert not form.const.any()

    def test_component_transfer(self):
        alloc = RegisterAllocator()
        opsum = op_sum([basic_op(2, "lr", 0, allocator=alloc)])
        G = compile_opsum(opsum)
        form = term_affine_form(G, parse_term("(u*v)*w"))
        row = form.coeff["v"][G.position(0)]
        # component 0 of the whole term is component 2 of v
        expected = np.zeros(G.width, dtype=np.uint8)
        expected[G.position(2)] = 1
        assert row.tolist() == expected.tolist()
        assert form.coeff["u"][G.position(0)].tolist() == [0, 0, 0]
        assert form.coeff["w"][G.position(0)].tolist() == [0, 0, 0]

    @pytest.mark.parametrize("text", ["x", "x*y", "(x*y)*(z*y)", "((u*v)*w)*u"])
    def test_agrees_with_recursive_eval(self, text):
        rng = random.Random(3)
        G = compile_opsum(cover_opsum())
        t = parse_term(text)
        form = term_affine_form(G, t)
        for _ in range(100):
            env = {
                name: np.array(
                    [rng.randrange(2) for _ in range(G.width)], dtype=np.uint8
                )
                for name in form.vars
            }
            assert form.evaluate(env).tolist() == eval_term_vec(G, t, env).tolist()

    def test_worked_terms_differ_only_in_constants(self):
        alpha, beta, c = TestAffineGroupoid.worked_example_maps()
        G = affine_groupoid(alpha, beta, c)
        s = parse_term("((v*w)*(x*y))*z")
        t = parse_term("((v*(w*x))*y)*z")
        fs, ft = term_affine_form(G, s), term_affine_form(G, t)
        for name in "vwxyz":
            assert np.array_equal(fs.coeff[name], ft.coeff[name])
        assert not np.array_equal(fs.const, ft.const)


class TestTermFormAgainstDense:
    """Packed forms equal the dense A @ M composition."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_groupoids_and_terms(self, seed):
        rng = random.Random(100 + seed)
        for G in dense.random_groupoids(seed, 60):
            for _ in range(4):
                t = dense.random_term(rng, rng.randint(1, 7))
                form = term_affine_form(G, t)
                coeff, const = dense.term_form(G, t)
                assert form.vars == tuple(variables(t))
                assert set(coeff) == set(form.vars)
                for name in form.vars:
                    assert np.array_equal(form.coeff[name], coeff[name])
                assert np.array_equal(form.const, const)

    def test_worked_example(self):
        G, s, t = dense.worked_example()
        for term in (s, t):
            coeff, const = dense.term_form(G, term)
            form = term_affine_form(G, term)
            assert all(np.array_equal(form.coeff[n], coeff[n]) for n in "vwxyz")
            assert np.array_equal(form.const, const)

    def test_names_set_the_column_layout(self):
        G, s, _ = dense.worked_example()
        wide = term_affine_form(G, parse_term("x*v"), ("a", "v", "x"))
        own = term_affine_form(G, parse_term("x*v"))
        assert wide.vars == ("a", "v", "x") and own.vars == ("v", "x")
        assert not wide.coeff["a"].any()
        for name in own.vars:
            assert np.array_equal(wide.coeff[name], own.coeff[name])
        assert wide.rows == tuple(row << G.width for row in own.rows)
        assert wide.const_bits == own.const_bits


class TestPackedRows:
    def test_compile_fills_the_rows(self):
        G = compile_opsum(cover_opsum())
        # z[0] := x[1]; z[1] := x[1] + 1
        assert G.xrows == (0b10, 0b10) and G.yrows == (0, 0) and G.cbits == 0b10
        assert G.A.tolist() == [[0, 1], [0, 1]] and G.c.tolist() == [0, 1]

    def test_views_are_read_only(self):
        G = compile_opsum(cover_opsum())
        with pytest.raises(ValueError):
            G.A[0, 0] = 1
        with pytest.raises(ValueError):
            term_affine_form(G, parse_term("x")).const[0] = 1

    def test_json_round_trip_keeps_the_rows(self):
        G, _, _ = dense.worked_example()
        for H in (G, compile_opsum(cover_opsum()), compile_opsum(op_sum([]))):
            assert VecGroupoid.from_json(H.to_json()) == H

    def test_rows_must_fit_the_width(self):
        with pytest.raises(ValueError):
            VecGroupoid((0, 1), (0b100, 0), (0, 0), 0)
        with pytest.raises(ValueError):
            VecGroupoid((0, 1), (0,), (0, 0), 0)


class TestDirectSum:
    def test_blocks_evaluate_independently(self):
        G1 = compile_opsum(cover_opsum())
        alloc = RegisterAllocator()
        G2 = compile_opsum(op_sum([basic_op(2, "lr", 0, allocator=alloc)]))
        GS = direct_sum(G1, G2)
        assert GS.width == G1.width + G2.width
        rng = random.Random(0)
        for _ in range(25):
            x1, y1 = (np.array([rng.randrange(2) for _ in range(2)]) for _ in "ab")
            x2, y2 = (np.array([rng.randrange(2) for _ in range(3)]) for _ in "ab")
            combined = eval_vec(GS, np.concatenate([x1, x2]), np.concatenate([y1, y2]))
            assert combined.tolist() == (
                eval_vec(G1, x1, y1).tolist() + eval_vec(G2, x2, y2).tolist()
            )

    def test_sum_with_trivial(self):
        G = compile_opsum(cover_opsum())
        GS = direct_sum(G, compile_opsum(op_sum([])))
        assert np.array_equal(GS.A, G.A) and np.array_equal(GS.c, G.c)

    def test_many_factors_match_the_left_fold(self):
        G1 = compile_opsum(cover_opsum())
        G2 = compile_opsum(op_sum([basic_op(2, "lr", 0)]))
        G3 = affine_groupoid([[1, 1], [0, 1]], [[0, 1], [1, 0]], [1, 0])
        E = compile_opsum(op_sum([]))
        assert G2.indices == (0, 2, 3)
        for factors in [(G1, G2, G3), (E, G2, G3), (G1, E, G3), (G1, G2, E), (G2, G1)]:
            GS = direct_sum(*factors)
            fold = functools.reduce(direct_sum, factors)
            assert GS.indices == fold.indices
            for attr in "ABc":
                assert np.array_equal(getattr(GS, attr), getattr(fold, attr))
        assert direct_sum(G1, G2, G3).indices == (0, 1, 2, 4, 5, 6, 7)
        assert direct_sum(E, G2).indices == (0, 2, 3)


class TestToCayley:
    def test_cover_pair_is_order_4(self):
        # element i of the table is the bit vector of i read as binary,
        # first component most significant
        def int_to_vec(value):
            return np.array([(value >> (G.width - 1 - k)) & 1 for k in range(G.width)])

        def vec_to_int(vec):
            return int("".join(map(str, vec)), 2)

        G = compile_opsum(cover_opsum())
        table = to_cayley(G)
        assert table.n == 4
        for i, j in itertools.product(range(4), repeat=2):
            x, y = int_to_vec(i), int_to_vec(j)
            assert table.op(i, j) == vec_to_int(eval_vec(G, x, y))

    def test_matches_the_dense_table(self):
        rng = random.Random(19)
        groupoids = [VecGroupoid((), (), (), 0)]
        groupoids += [dense.random_affine(rng, width) for width in range(1, 9) for _ in range(3)]
        groupoids += [dense.random_compiled(rng) for _ in range(20)]
        assert {G.width for G in groupoids} >= set(range(9))
        for G in groupoids:
            assert to_cayley(G) == dense.cayley_table(G)

    def test_width_bound(self):
        G = compile_opsum(cover_opsum())
        with pytest.raises(ValueError):
            to_cayley(G, max_bits=1)

    def test_json_round_trip(self):
        G = compile_opsum(cover_opsum())
        assert VecGroupoid.from_json(G.to_json()).A.tolist() == G.A.tolist()
