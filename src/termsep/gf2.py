"""GF(2) linear algebra on bit-packed rows.

A matrix is a list of Python ints, one per row, where bit j of a row is
column j; a vector is one int the same way.  Elimination XORs whole rows,
the packed-row technique of M4RI (Albrecht, Bard & Hart, "Algorithm 898",
ACM TOMS 2010).  Pivots are taken in ascending column order and free
variables are set to 0, so every result equals that of the textbook dense
elimination.
"""

from __future__ import annotations

import numpy as np


class Matrix:
    """rows x ncols over GF(2); rows[i] holds no bit at ncols or above."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols: int):
        self.rows = list(rows)
        self.ncols = ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def transpose(self) -> "Matrix":
        out = [0] * self.ncols
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return Matrix(out, len(self.rows))


def pack_rows(a: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as an int, column j at bit j."""
    packed = np.packbits(np.asarray(a, dtype=np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def pack(vec) -> int:
    """A 0/1 vector as an int, component j at bit j."""
    return pack_rows(np.reshape(vec, (1, -1)))[0]


def unpack_rows(rows, ncols: int) -> np.ndarray:
    """The uint8 array of packed rows: row i, column j is bit j of rows[i]."""
    nbytes = (ncols + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    bytes_ = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(bytes_, axis=1, count=ncols, bitorder="little")


def unpack(vec: int, n: int) -> np.ndarray:
    """A packed vector as a uint8 array of length n."""
    return unpack_rows([vec], n)[0]


def rref(mat: Matrix):
    """Reduced row echelon form; returns (R, pivot_columns).

    Each row is reduced by the pivot rows found so far and then pivots on
    its lowest remaining bit, which is cleared from the earlier pivot rows.
    R holds the pivot rows by ascending pivot column, then zero rows.
    """
    pivots: list[tuple[int, int]] = []  # (bit of the pivot column, row)
    for row in mat.rows:
        for bit, prow in pivots:
            if row & bit:
                row ^= prow
        if not row:
            continue
        low = row & -row
        for k, (bit, prow) in enumerate(pivots):
            if prow & low:
                pivots[k] = (bit, prow ^ row)
        pivots.append((low, row))
    pivots.sort()
    rows = [prow for _, prow in pivots]
    rows += [0] * (len(mat.rows) - len(rows))
    return Matrix(rows, mat.ncols), [bit.bit_length() - 1 for bit, _ in pivots]


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def solve(mat: Matrix, rhs: int):
    """One solution of mat @ x = rhs over GF(2), or None if inconsistent.

    rhs holds row i's right-hand side at bit i; the solution is packed.
    """
    n = mat.ncols
    aug = Matrix([row | ((rhs >> i) & 1) << n for i, row in enumerate(mat.rows)], n + 1)
    r, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None
    x = 0
    for row, col in zip(r.rows, pivots):
        x |= (row >> n) << col
    return x


def nullspace(mat: Matrix) -> Matrix:
    """Basis of the right nullspace, one vector per row, by free column."""
    r, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for fc in range(mat.ncols):
        if fc in pivot_set:
            continue
        vec = 1 << fc
        for row, pc in zip(r.rows, pivots):
            vec |= ((row >> fc) & 1) << pc
        basis.append(vec)
    return Matrix(basis, mat.ncols)


def _before(a: int, b: int) -> bool:
    """Is a's sorted support lexicographically before b's, given equal weights?

    The lists agree up to the lowest bit where a and b differ; a comes
    first iff that bit is in a.
    """
    diff = a ^ b
    return bool(diff & -diff & a)


def min_weight_solution(mat: Matrix, rhs: int, enum_limit: int = 4096):
    """Lowest-Hamming-weight solution of mat @ x = rhs, if one exists.

    Enumerates the whole solution coset when it has at most enum_limit
    elements; otherwise settles for the particular solution.  Ties broken
    toward the lexicographically smallest support, so the result is
    deterministic.
    """
    part = solve(mat, rhs)
    if part is None:
        return None
    basis = nullspace(mat).rows
    dim = len(basis)
    if dim == 0 or 2**dim > enum_limit:
        return part
    best, best_weight = part, part.bit_count()
    cand = part
    for step in range(1, 2**dim):
        # Gray code: consecutive coset elements differ by one basis vector
        cand ^= basis[(step & -step).bit_length() - 1]
        weight = cand.bit_count()
        if weight < best_weight or (weight == best_weight and _before(cand, best)):
            best, best_weight = cand, weight
    return best
