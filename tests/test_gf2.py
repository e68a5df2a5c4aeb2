import random

import numpy as np
import pytest

import dense_reference as dense
from termsep import gf2


def random_dense(rng: random.Random, rows: int, cols: int, density: float) -> np.ndarray:
    return np.array(
        [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)],
        dtype=np.uint8,
    ).reshape(rows, cols)


def random_systems(seed: int, count: int):
    """Seeded (matrix, rhs) pairs: empty, thin, square, wide, sparse, dense
    and rank-deficient systems, half with a consistent right-hand side."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 9), rng.randint(0, 12)
        a = random_dense(rng, rows, cols, rng.choice((0.1, 0.3, 0.5, 0.8)))
        if rows >= 2 and rng.random() < 0.3:
            # repeat sums of earlier rows to force rank deficiency
            for i in range(rows // 2, rows):
                a[i] = a[rng.randrange(i)] ^ a[rng.randrange(i)]
        if rng.random() < 0.5 and cols:
            rhs = (a @ random_dense(rng, cols, 1, 0.5).reshape(-1)) % 2
        else:
            rhs = random_dense(rng, 1, rows, 0.5).reshape(-1)
        yield a, rhs


def packed(a: np.ndarray) -> gf2.Matrix:
    return gf2.Matrix(gf2.pack_rows(a), a.shape[1])


def dense_of(m: gf2.Matrix) -> np.ndarray:
    return gf2.unpack_rows(m.rows, m.ncols)


def packed_vec(v) -> int:
    return gf2.pack(np.asarray(v, dtype=np.uint8)) if len(v) else 0


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(0)
        for rows, cols in [(0, 0), (0, 5), (4, 0), (3, 7), (2, 8), (5, 9), (1, 130)]:
            a = random_dense(rng, rows, cols, 0.5)
            m = packed(a)
            assert m.shape == (rows, cols)
            assert dense_of(m).shape == (rows, cols)
            assert np.array_equal(dense_of(m), a)

    def test_column_j_is_bit_j(self):
        m = packed(np.array([[1, 0, 0], [0, 1, 1]]))
        assert m.rows == [0b001, 0b110]
        assert gf2.pack([0, 1, 1, 0]) == 0b0110
        assert gf2.unpack(0b0110, 4).tolist() == [0, 1, 1, 0]

    def test_transpose(self):
        rng = random.Random(1)
        for rows, cols in [(0, 3), (3, 0), (4, 6), (7, 2)]:
            a = random_dense(rng, rows, cols, 0.5)
            t = packed(a).transpose()
            assert t.shape == (cols, rows)
            assert np.array_equal(dense_of(t), a.T)


class TestAgainstDense:
    """The packed elimination gives exactly the dense results."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rref_and_rank(self, seed):
        for a, _ in random_systems(seed, 150):
            r, pivots = gf2.rref(packed(a))
            want_r, want_pivots = dense.rref(a)
            assert pivots == want_pivots
            assert np.array_equal(dense_of(r), want_r)
            assert gf2.rank(packed(a)) == len(want_pivots)

    @pytest.mark.parametrize("seed", range(4))
    def test_solve(self, seed):
        for a, rhs in random_systems(seed, 150):
            got = gf2.solve(packed(a), packed_vec(rhs))
            want = dense.solve(a, rhs)
            if want is None:
                assert got is None
            else:
                assert gf2.unpack(got, a.shape[1]).tolist() == want.tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_nullspace(self, seed):
        for a, _ in random_systems(seed, 150):
            basis = gf2.nullspace(packed(a))
            assert basis.shape == dense.nullspace(a).shape
            assert np.array_equal(dense_of(basis), dense.nullspace(a))

    @pytest.mark.parametrize("seed", range(4))
    def test_min_weight_solution(self, seed):
        for a, rhs in random_systems(seed, 150):
            for limit in (4096, 4):
                got = gf2.min_weight_solution(packed(a), packed_vec(rhs), limit)
                want = dense.min_weight_solution(a, rhs, limit)
                if want is None:
                    assert got is None
                else:
                    assert gf2.unpack(got, a.shape[1]).tolist() == want.tolist()


class TestEdgeCases:
    def test_no_rows(self):
        a = np.zeros((0, 3), dtype=np.uint8)
        assert gf2.solve(packed(a), 0) == 0
        assert dense_of(gf2.nullspace(packed(a))).tolist() == np.eye(3).tolist()
        assert gf2.min_weight_solution(packed(a), 0) == 0

    def test_no_columns(self):
        a = np.zeros((2, 0), dtype=np.uint8)
        assert gf2.solve(packed(a), 0b00) == 0
        assert gf2.solve(packed(a), 0b10) is None
        assert gf2.nullspace(packed(a)).shape == (0, 0)

    def test_rank_deficient(self):
        a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        r, pivots = gf2.rref(packed(a))
        assert pivots == [0, 1]
        assert r.rows[2] == 0
        assert dense_of(gf2.nullspace(packed(a))).tolist() == [[1, 1, 1]]
        # x0 + x1 = 1, x1 + x2 = 0: the particular solution sets x2 = 0
        assert gf2.unpack(gf2.solve(packed(a), packed_vec([1, 0, 1])), 3).tolist() == [1, 0, 0]

    def test_inconsistent(self):
        a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        assert gf2.solve(packed(a), packed_vec([1, 0])) is None
        assert gf2.min_weight_solution(packed(a), packed_vec([1, 0])) is None

    def test_min_weight_ties_go_to_the_first_support(self):
        # x0 + x1 + x2 + x3 = 1: four solutions of weight 1, {0} comes first
        a = np.ones((1, 4), dtype=np.uint8)
        assert gf2.min_weight_solution(packed(a), 1) == 0b0001
        # x0 + x1 = 1 and x2 + x3 = 1: {0, 2} before {0, 3}, {1, 2}, {1, 3}
        a = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
        assert gf2.min_weight_solution(packed(a), 0b11) == 0b0101
