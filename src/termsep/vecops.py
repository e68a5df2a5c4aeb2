"""Component-transfer operations and affine groupoids over GF(2) vectors.

A basic operation ||m,p,n|| routes component m of the subterm at path p
into component n of the whole term, via a chain of fresh internal
registers.  Duplicate-free sums of these compile to groupoids
x*y = A.x + B.y + c on bit vectors indexed by the mentioned registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from termsep.terms import Mul, Term, Var, var_key, variables

DEFAULT_TABLE_BITS = 16


class DuplicateTargetError(ValueError):
    pass


@dataclass(frozen=True)
class Equation:
    """z[target] := x|y[source] (+ 1 when flip), with := per component."""

    target: int
    side: str  # 'x' or 'y'
    source: int
    flip: bool = False

    def render(self) -> str:
        extra = " + 1" if self.flip else ""
        return f"z[{self.target}] := {self.side}[{self.source}]{extra}"


class RegisterAllocator:
    """Deterministic counter issuing registers never handed out before."""

    def __init__(self, start: int = 0):
        self.next = start

    def reserve(self, regs: Iterable[int]):
        top = max(regs, default=-1)
        if top + 1 > self.next:
            self.next = top + 1

    def fresh(self, count: int) -> tuple[int, ...]:
        out = tuple(range(self.next, self.next + count))
        self.next += count
        return out


@dataclass(frozen=True)
class BasicOp:
    m: int
    p: str
    n: int
    tweaked: bool = False
    internal: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.p or any(ch not in "lr" for ch in self.p):
            raise ValueError("path must be a nonempty string over l/r")
        if len(self.internal) != len(self.p) - 1:
            raise ValueError("need exactly |p|-1 internal registers")
        named = {self.m, self.n}
        if named & set(self.internal):
            raise ValueError("internal registers must avoid m and n")

    def equations(self) -> tuple[Equation, ...]:
        side = {"l": "x", "r": "y"}
        chain = self.internal + (self.m,)
        eqs = [Equation(self.n, side[self.p[0]], chain[0], self.tweaked)]
        for i in range(1, len(self.p)):
            eqs.append(Equation(chain[i - 1], side[self.p[i]], chain[i]))
        return tuple(eqs)

    def registers(self) -> set[int]:
        return {self.m, self.n, *self.internal}

    def render(self) -> str:
        mark = "'" if self.tweaked else ""
        return f"||{self.m},{self.p},{self.n}||{mark}"

    def to_json(self) -> dict:
        return {"m": self.m, "p": self.p, "n": self.n, "tweaked": self.tweaked}


def basic_op(
    m: int,
    p: str,
    n: int,
    tweaked: bool = False,
    allocator: Optional[RegisterAllocator] = None,
) -> BasicOp:
    """Build ||m,p,n|| with internal registers from the allocator."""
    if allocator is None:
        allocator = RegisterAllocator()
    allocator.reserve((m, n))
    internal = allocator.fresh(max(len(p) - 1, 0))
    return BasicOp(m, p, n, tweaked, internal)


@dataclass(frozen=True)
class OpSum:
    summands: tuple[BasicOp, ...]

    def equations(self) -> tuple[Equation, ...]:
        return tuple(eq for op in self.summands for eq in op.equations())

    def registers(self) -> set[int]:
        regs: set[int] = set()
        for op in self.summands:
            regs |= op.registers()
        return regs

    def render(self) -> str:
        return " + ".join(op.render() for op in self.summands) if self.summands else "0"

    def to_json(self) -> list[dict]:
        return [op.to_json() for op in self.summands]


def op_sum(ops: Sequence[BasicOp]) -> OpSum:
    """Validated duplicate-free sum: every target assigned at most once."""
    targets: set[int] = set()
    for op in ops:
        for eq in op.equations():
            if eq.target in targets:
                raise DuplicateTargetError(
                    f"register {eq.target} is assigned by two equations"
                )
            targets.add(eq.target)
    return OpSum(tuple(ops))


def opsum_from_json(obj: Sequence[dict], allocator: Optional[RegisterAllocator] = None) -> OpSum:
    if allocator is None:
        allocator = RegisterAllocator()
        for entry in obj:
            allocator.reserve((entry["m"], entry["n"]))
    ops = [
        basic_op(e["m"], e["p"], e["n"], bool(e.get("tweaked")), allocator) for e in obj
    ]
    return op_sum(ops)


@dataclass(frozen=True)
class VecGroupoid:
    """x*y = A.x + B.y + c over GF(2), components named by sorted indices."""

    indices: tuple[int, ...]
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        m = len(self.indices)
        if tuple(sorted(set(self.indices))) != self.indices:
            raise ValueError("indices must be sorted and distinct")
        for mat in (self.A, self.B):
            if mat.shape != (m, m):
                raise ValueError("matrix shape must match index count")
        if self.c.shape != (m,):
            raise ValueError("constant length must match index count")

    @property
    def width(self) -> int:
        return len(self.indices)

    @property
    def order(self) -> int:
        return 2**self.width

    def position(self, register: int) -> int:
        return self.indices.index(register)

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "c": self.c.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VecGroupoid":
        return cls(
            tuple(obj["indices"]),
            np.array(obj["A"], dtype=np.uint8),
            np.array(obj["B"], dtype=np.uint8),
            np.array(obj["c"], dtype=np.uint8),
        )


def compile_opsum(opsum: OpSum) -> VecGroupoid:
    """Matrix form of an OpSum; unassigned registers stay zero."""
    indices = tuple(sorted(opsum.registers()))
    pos = {reg: i for i, reg in enumerate(indices)}
    m = len(indices)
    A = np.zeros((m, m), dtype=np.uint8)
    B = np.zeros((m, m), dtype=np.uint8)
    c = np.zeros(m, dtype=np.uint8)
    for eq in opsum.equations():
        mat = A if eq.side == "x" else B
        mat[pos[eq.target], pos[eq.source]] = 1
        if eq.flip:
            c[pos[eq.target]] ^= 1
    return VecGroupoid(indices, A, B, c)


def eval_opsum_direct(opsum: OpSum, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """Interpret the equations literally on register->bit maps.

    Independent of the compiled matrix form; registers not assigned by
    any equation come out zero.
    """
    z = {reg: 0 for reg in opsum.registers()}
    for eq in opsum.equations():
        source = x if eq.side == "x" else y
        z[eq.target] = (source.get(eq.source, 0) + (1 if eq.flip else 0)) % 2
    return z


def affine_groupoid(A, B, c) -> VecGroupoid:
    """Direct construction from square matrices; indices are 0..m-1."""
    A = np.asarray(A, dtype=np.uint8) % 2
    B = np.asarray(B, dtype=np.uint8) % 2
    c = np.asarray(c, dtype=np.uint8).reshape(-1) % 2
    if A.shape != B.shape or A.shape[0] != A.shape[1] or c.shape[0] != A.shape[0]:
        raise ValueError("matrices must be square and of equal dimension")
    return VecGroupoid(tuple(range(A.shape[0])), A, B, c)


def eval_vec(G: VecGroupoid, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != (G.width,) or y.shape != (G.width,):
        raise ValueError("argument length must match index count")
    return (G.A @ x + G.B @ y + G.c) % 2


def eval_term_vec(G: VecGroupoid, t: Term, env: dict[str, np.ndarray]) -> np.ndarray:
    """Recursive term evaluation with bit-vector variable values."""
    if isinstance(t, Var):
        return np.asarray(env[t.name], dtype=np.uint8)
    return eval_vec(G, eval_term_vec(G, t.left, env), eval_term_vec(G, t.right, env))


@dataclass(frozen=True)
class AffineTermForm:
    """Evaluation of a term in a VecGroupoid as an affine map of its vars."""

    vars: tuple[str, ...]
    coeff: dict[str, np.ndarray]
    const: np.ndarray

    def evaluate(self, env: dict[str, np.ndarray]) -> np.ndarray:
        acc = self.const.copy()
        for name in self.vars:
            acc = (acc + self.coeff[name] @ np.asarray(env[name], dtype=np.uint8)) % 2
        return acc


def term_affine_form(G: VecGroupoid, t: Term) -> AffineTermForm:
    m = G.width
    names = tuple(variables(t))

    def walk(node: Term) -> tuple[dict[str, np.ndarray], np.ndarray]:
        if isinstance(node, Var):
            coeff = {node.name: np.eye(m, dtype=np.uint8)}
            return coeff, np.zeros(m, dtype=np.uint8)
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
        const = (G.A @ l0 + G.B @ r0 + G.c) % 2
        return coeff, const

    coeff, const = walk(t)
    full = {name: coeff.get(name, np.zeros((m, m), dtype=np.uint8)) for name in names}
    return AffineTermForm(names, full, const)


def direct_sum(*factors: VecGroupoid) -> VecGroupoid:
    """Product groupoid as a block-diagonal operation.

    The first factor keeps its register names; each later factor is
    renamed to start just above the registers before it.
    """
    indices = list(factors[0].indices) if factors else []
    for G in factors[1:]:
        base = indices[-1] + 1 if indices else 0
        indices.extend(base + r - G.indices[0] for r in G.indices)
    m = len(indices)
    A = np.zeros((m, m), dtype=np.uint8)
    B = np.zeros_like(A)
    c = np.zeros(m, dtype=np.uint8)
    lo = 0
    for G in factors:
        hi = lo + G.width
        A[lo:hi, lo:hi] = G.A
        B[lo:hi, lo:hi] = G.B
        c[lo:hi] = G.c
        lo = hi
    return VecGroupoid(tuple(indices), A, B, c)


def vec_to_int(G: VecGroupoid, vec: np.ndarray) -> int:
    """Bit vector read as binary, first component most significant."""
    out = 0
    for b in vec:
        out = (out << 1) | int(b)
    return out


def int_to_vec(G: VecGroupoid, value: int) -> np.ndarray:
    m = G.width
    return np.array([(value >> (m - 1 - i)) & 1 for i in range(m)], dtype=np.uint8)


def to_cayley(G: VecGroupoid, max_bits: int = DEFAULT_TABLE_BITS):
    """Explicit table of order 2^width; refuses widths over max_bits."""
    from termsep.cayley import CayleyGroupoid

    m = G.width
    if m > max_bits:
        raise ValueError(f"width {m} exceeds table bound {max_bits} bits")
    if m == 0:
        return CayleyGroupoid(((0,),))
    n = 2**m
    vecs = np.array(
        [[(i >> (m - 1 - k)) & 1 for k in range(m)] for i in range(n)], dtype=np.uint8
    )
    ax = (vecs @ G.A.T) % 2
    by = (vecs @ G.B.T) % 2
    weights = 1 << np.arange(m - 1, -1, -1)
    ax_int = ax @ weights
    by_int = by @ weights
    c_int = int(G.c @ weights)
    table = np.bitwise_xor.outer(ax_int, by_int) ^ c_int
    return CayleyGroupoid(tuple(tuple(int(v) for v in row) for row in table))
