"""The dense numpy GF(2) path, kept as the reference for the packed code.

rref, solve, nullspace and min_weight_solution are the textbook
eliminations on uint8 arrays.  eval_opsum_direct reads an OpSum's
equations literally, without compiling them.  term_form composes the groupoid's matrices
along the term (A @ M for a left child, B @ M for a right one), and
decision and parity_ok are the separation decision and the parity check
built on them.  cayley_table is the table of vecops.to_cayley, built from
the matrices.  The random_* helpers make seeded inputs for comparing them.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from termsep.cayley import CayleyGroupoid
from termsep.terms import Mul, Term, Var, var_key, variables
from termsep.vecops import RegisterAllocator, affine_groupoid, basic_op, compile_opsum, op_sum


def as_gf2(a) -> np.ndarray:
    return np.asarray(a, dtype=np.uint8) % 2


def rref(mat):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    r = as_gf2(mat).copy()
    rows, cols = r.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + hits[0]
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        for i in np.nonzero(r[:, col])[0]:
            if i != row:
                r[i] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def solve(mat, rhs):
    """One solution of mat @ x = rhs, free variables 0, or None."""
    a = as_gf2(mat)
    b = as_gf2(rhs).reshape(-1, 1)
    r, pivots = rref(np.hstack([a, b]))
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for i, col in enumerate(pivots):
        x[col] = r[i, -1]
    return x


def nullspace(mat) -> np.ndarray:
    """Basis of the right nullspace, one vector per row, by free column."""
    a = as_gf2(mat)
    ncols = a.shape[1]
    if a.shape[0] == 0 or a.size == 0:
        return np.eye(ncols, dtype=np.uint8)
    r, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = r[i, fc]
    return basis


def min_weight_solution(mat, rhs, enum_limit: int = 4096):
    """Lowest weight, then lexicographically first support, over the coset."""
    part = solve(mat, rhs)
    if part is None:
        return None
    basis = nullspace(mat)
    dim = basis.shape[0]
    if dim == 0 or 2**dim > enum_limit:
        return part
    best = part
    best_key = (int(part.sum()), tuple(np.nonzero(part)[0]))
    for bits in itertools.product((0, 1), repeat=dim):
        cand = part.copy()
        for take, vec in zip(bits, basis):
            if take:
                cand ^= vec
        key = (int(cand.sum()), tuple(np.nonzero(cand)[0]))
        if key < best_key:
            best, best_key = cand, key
    return best


def term_form(G, t: Term):
    """({var: m x m coefficient}, constant) of t by matrix products."""
    m = G.width

    def walk(node):
        if isinstance(node, Var):
            return {node.name: np.eye(m, dtype=np.uint8)}, np.zeros(m, dtype=np.uint8)
        lc, l0 = walk(node.left)
        rc, r0 = walk(node.right)
        coeff = {}
        for name in set(lc) | set(rc):
            acc = np.zeros((m, m), dtype=np.uint8)
            if name in lc:
                acc = (acc + G.A @ lc[name]) % 2
            if name in rc:
                acc = (acc + G.B @ rc[name]) % 2
            coeff[name] = acc
        return coeff, (G.A @ l0 + G.B @ r0 + G.c) % 2

    return walk(t)


def cayley_table(G) -> CayleyGroupoid:
    """Element i is the vector of the bits of i, first component most
    significant, and the entry at (x, y) is A.x + B.y + c."""
    m = G.width
    if m == 0:
        return CayleyGroupoid(((0,),))
    n = 2**m
    vecs = np.array(
        [[(i >> (m - 1 - k)) & 1 for k in range(m)] for i in range(n)], dtype=np.uint8
    )
    weights = 1 << np.arange(m - 1, -1, -1)
    ax = ((vecs @ G.A.T) % 2) @ weights
    by = ((vecs @ G.B.T) % 2) @ weights
    c = int(G.c @ weights)
    table = np.bitwise_xor.outer(ax, by) ^ c
    return CayleyGroupoid(tuple(tuple(int(v) for v in row) for row in table))


def eval_opsum_direct(opsum, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """Interpret the equations literally on register->bit maps.

    Independent of the compiled matrix form; registers not assigned by
    any equation come out zero.
    """
    z = {reg: 0 for reg in opsum.registers()}
    for eq in opsum.equations():
        source = x if eq.side == "x" else y
        z[eq.target] = (source.get(eq.source, 0) + (1 if eq.flip else 0)) % 2
    return z


def eval_term(G, t: Term, env) -> np.ndarray:
    if isinstance(t, Var):
        return np.asarray(env[t.name], dtype=np.uint8)
    x, y = eval_term(G, t.left, env), eval_term(G, t.right, env)
    return (G.A @ x + G.B @ y + G.c) % 2


def difference_system(G, s: Term, t: Term):
    names = sorted(set(variables(s)) | set(variables(t)), key=var_key)
    (sc, s0), (tc, t0) = term_form(G, s), term_form(G, t)
    m = G.width
    zero = np.zeros((m, m), dtype=np.uint8)
    blocks = [(sc.get(n, zero) + tc.get(n, zero)) % 2 for n in names]
    D = np.hstack(blocks) if blocks else np.zeros((m, 0), dtype=np.uint8)
    return names, D, (s0 + t0) % 2


def decision(G, s: Term, t: Term):
    """(separated, lam, assignment) as the dense decision gives them."""
    names, D, d0 = difference_system(G, s, t)
    m = G.width
    solution = solve(D, d0)
    if solution is not None:
        assignment = {n: solution[i * m : (i + 1) * m] for i, n in enumerate(names)}
        assert np.array_equal(eval_term(G, s, assignment), eval_term(G, t, assignment))
        return False, None, assignment
    system = np.vstack([D.T, d0.reshape(1, -1)])
    rhs = np.zeros(system.shape[0], dtype=np.uint8)
    rhs[-1] = 1
    lam_vec = min_weight_solution(system, rhs)
    return True, frozenset(int(G.indices[i]) for i in np.nonzero(lam_vec)[0]), None


def parity_ok(G, s: Term, t: Term, lam) -> bool:
    _, D, d0 = difference_system(G, s, t)
    sel = np.zeros(G.width, dtype=np.uint8)
    for reg in lam:
        sel[G.position(reg)] = 1
    return not ((sel @ D) % 2).any() and int(sel @ d0) % 2 == 1


def random_term(rng: random.Random, leaves: int, names: str = "xyz") -> Term:
    if leaves == 1:
        return Var(rng.choice(names))
    k = rng.randint(1, leaves - 1)
    return Mul(random_term(rng, k, names), random_term(rng, leaves - k, names))


def random_dag(rng: random.Random, products: int, names: str = "xyz") -> Term:
    """A term built by multiplying random earlier ones, so its subterms
    are shared: `products` products over the variables, at most 2**products
    leaves."""
    pool = [Var(name) for name in names]
    for _ in range(products):
        pool.append(Mul(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def random_compiled(rng: random.Random):
    """compile_opsum of a random duplicate-free sum of up to three ops."""
    alloc = RegisterAllocator()
    ops = []
    for _ in range(rng.randint(1, 3)):
        p = "".join(rng.choice("lr") for _ in range(rng.randint(1, 3)))
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        try:
            alloc.reserve((m, n))
            op = basic_op(m, p, n, rng.random() < 0.5, alloc)
            op_sum(ops + [op])
        except ValueError:
            continue
        ops.append(op)
    return compile_opsum(op_sum(ops))


def random_cross_checks(rng: random.Random):
    """Endless (G, s, t) for comparing the affine decision with brute
    force: G compiles a random sum of one or two ops and has order at
    most 4, and s and t are random terms of depth at most 2 over x, y, z
    and u."""
    names = ["x", "y", "z", "u"]

    def term_of_depth(depth):
        if depth == 0 or rng.random() < 0.3:
            return Var(rng.choice(names))
        return Mul(term_of_depth(depth - 1), term_of_depth(depth - 1))

    while True:
        alloc = RegisterAllocator()
        ops = []
        for _ in range(rng.randint(1, 2)):
            p = "".join(rng.choice("lr") for _ in range(rng.randint(1, 2)))
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            try:
                alloc.reserve((m, n))
                ops.append(basic_op(m, p, n, rng.random() < 0.5, alloc))
                opsum = op_sum(ops)
            except ValueError:
                break
        else:
            G = compile_opsum(opsum)
            if G.order <= 4:
                yield G, term_of_depth(2), term_of_depth(2)


def random_affine(rng: random.Random, width: int):
    """A general affine groupoid: dense A and B, about half their entries 1."""

    def bits(count):
        return [int(rng.random() < 0.5) for _ in range(count)]

    return affine_groupoid(
        [bits(width) for _ in range(width)], [bits(width) for _ in range(width)], bits(width)
    )


def worked_example():
    """The 6-bit groupoid of the worked example and its two terms."""
    alpha = np.zeros((6, 6), dtype=np.uint8)
    for dst, src in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 3), (5, 4)]:
        alpha[dst, src] = 1
    beta = np.zeros((6, 6), dtype=np.uint8)
    for dst, src in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]:
        beta[dst, src] = 1
    c = np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8)
    s = Mul(Mul(Mul(Var("v"), Var("w")), Mul(Var("x"), Var("y"))), Var("z"))
    t = Mul(Mul(Mul(Var("v"), Mul(Var("w"), Var("x"))), Var("y")), Var("z"))
    return affine_groupoid(alpha, beta, c), s, t


def random_groupoids(seed: int, count: int):
    """Seeded mix: compiled routing maps, general affine groupoids of
    width 1 to 6, and the worked example."""
    rng = random.Random(seed)
    yield worked_example()[0]
    for i in range(count):
        yield random_compiled(rng) if i % 2 else random_affine(rng, rng.randint(1, 6))
