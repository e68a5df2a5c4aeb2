"""Component-transfer operations and affine groupoids over GF(2) vectors.

A basic operation ||m,p,n|| routes component m of the subterm at path p
into component n of the whole term, via a chain of fresh internal
registers.  Duplicate-free sums of these compile to groupoids
x*y = A.x + B.y + c on bit vectors indexed by the mentioned registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from termsep import gf2
from termsep.cayley import CayleyGroupoid
from termsep.terms import Term, steps, variables

# to_cayley holds all 4^width table entries as Python ints: 45 MB at width
# 10, and each further bit takes 4 times as much (about 180 GB at width 16)
DEFAULT_TABLE_BITS = 10


class DuplicateTargetError(ValueError):
    pass


class Equation(NamedTuple):
    """z[target] := x|y[source] (+ 1 when flip), with := per component.

    A named tuple rather than a frozen dataclass: every search candidate
    builds its equations twice, to validate the sum and to compile it, and
    a named tuple takes less than half the time to build.
    """

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


@dataclass(frozen=True)
class VecGroupoid:
    """x*y = A.x + B.y + c over GF(2), components named by sorted indices.

    Held as packed rows: bit j of xrows[i] (yrows[i]) is set when output
    component i reads component j of x (of y), and bit i of cbits is c[i].
    A, B and c are read-only numpy copies of these rows, built on each
    read and not kept, so a certificate holds only its rows.
    """

    indices: tuple[int, ...]
    xrows: tuple[int, ...]
    yrows: tuple[int, ...]
    cbits: int

    def __post_init__(self):
        m = len(self.indices)
        if tuple(sorted(set(self.indices))) != self.indices:
            raise ValueError("indices must be sorted and distinct")
        if len(self.xrows) != m or len(self.yrows) != m:
            raise ValueError("row count must match index count")
        if max(self.xrows + self.yrows + (self.cbits,)) >> m:
            raise ValueError("rows must not reach past the index count")

    @property
    def width(self) -> int:
        return len(self.indices)

    @property
    def order(self) -> int:
        return 2**self.width

    def position(self, register: int) -> int:
        return self.indices.index(register)

    @cached_property
    def sources(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per output component, the x and the y components it reads."""
        return tuple((_bits(x), _bits(y)) for x, y in zip(self.xrows, self.yrows))

    @property
    def A(self) -> np.ndarray:
        return _view(gf2.unpack_rows(self.xrows, self.width))

    @property
    def B(self) -> np.ndarray:
        return _view(gf2.unpack_rows(self.yrows, self.width))

    @property
    def c(self) -> np.ndarray:
        return _view(gf2.unpack(self.cbits, self.width))

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "c": self.c.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VecGroupoid":
        return _from_dense(tuple(obj["indices"]), obj["A"], obj["B"], obj["c"])


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _view(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _from_dense(indices: tuple[int, ...], A, B, c) -> VecGroupoid:
    m = len(indices)

    def rows(mat) -> tuple[int, ...]:
        mat = np.asarray(mat, dtype=np.uint8) % 2
        if mat.shape != (m, m) and not (m == 0 and mat.size == 0):
            raise ValueError("matrix shape must match index count")
        return tuple(gf2.pack_rows(mat.reshape(m, m)))

    c = np.asarray(c, dtype=np.uint8).reshape(-1) % 2
    if c.shape != (m,):
        raise ValueError("constant length must match index count")
    return VecGroupoid(indices, rows(A), rows(B), gf2.pack(c))


def compile_opsum(opsum: OpSum) -> VecGroupoid:
    """Packed rows of an OpSum; unassigned registers stay zero."""
    indices = tuple(sorted(opsum.registers()))
    pos = {reg: i for i, reg in enumerate(indices)}
    xrows = [0] * len(indices)
    yrows = [0] * len(indices)
    cbits = 0
    for eq in opsum.equations():
        rows = xrows if eq.side == "x" else yrows
        rows[pos[eq.target]] |= 1 << pos[eq.source]
        if eq.flip:
            cbits ^= 1 << pos[eq.target]
    return VecGroupoid(indices, tuple(xrows), tuple(yrows), cbits)


def affine_groupoid(A, B, c) -> VecGroupoid:
    """Direct construction from square matrices; indices are 0..m-1."""
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    m = len(A)
    if A.shape != (m, m) or B.shape != (m, m) or np.size(c) != m:
        raise ValueError("matrices must be square and of equal dimension")
    return _from_dense(tuple(range(m)), A, B, c)


def eval_bits(G: VecGroupoid, x: int, y: int) -> int:
    """x*y on packed vectors, straight from the rows."""
    out = G.cbits
    for i, (xm, ym) in enumerate(zip(G.xrows, G.yrows)):
        if ((xm & x).bit_count() + (ym & y).bit_count()) & 1:
            out ^= 1 << i
    return out


def program_values(
    G: VecGroupoid, prog: Sequence, roots: Sequence[int], env: dict[str, int]
) -> list[int]:
    """The values of the steps `roots` of a program (see terms.steps),
    with packed variable values, evaluated step by step."""
    values: list[int] = []
    for step in prog:
        if isinstance(step, str):
            values.append(env[step])
        else:
            values.append(eval_bits(G, values[step[0]], values[step[1]]))
    return [values[root] for root in roots]


def eval_term_bits(G: VecGroupoid, t: Term, env: dict[str, int]) -> int:
    """Term evaluation with packed variable values."""
    return program_values(G, *steps([t]), env)[0]


def eval_vec(G: VecGroupoid, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != (G.width,) or y.shape != (G.width,):
        raise ValueError("argument length must match index count")
    return gf2.unpack(eval_bits(G, gf2.pack(x), gf2.pack(y)), G.width)


def eval_term_vec(G: VecGroupoid, t: Term, env: dict[str, np.ndarray]) -> np.ndarray:
    """Term evaluation with bit-vector variable values."""
    packed = {name: gf2.pack(value) for name, value in env.items()}
    return gf2.unpack(eval_term_bits(G, t, packed), G.width)


@dataclass(frozen=True)
class AffineTermForm:
    """Evaluation of a term in a VecGroupoid as an affine map of its vars.

    Packed: rows[i] is output component i over the columns k*width + j,
    component j of the k-th name in vars, and bit i of const_bits is its
    constant.  coeff (one width x width block per name) and const are
    read-only numpy views of the same form.
    """

    vars: tuple[str, ...]
    width: int
    rows: tuple[int, ...]
    const_bits: int

    @classmethod
    def from_rows(
        cls, names: Sequence[str], width: int, rows: Sequence[int]
    ) -> "AffineTermForm":
        """The form whose output component i is rows[i] over the columns
        of names, with its constant in column len(names) * width."""
        ncols = len(names) * width
        const_bits = 0
        for i, row in enumerate(rows):
            const_bits |= (row >> ncols) << i
        mask = (1 << ncols) - 1
        return cls(tuple(names), width, tuple(row & mask for row in rows), const_bits)

    @cached_property
    def coeff(self) -> dict[str, np.ndarray]:
        m = self.width
        dense = _view(gf2.unpack_rows(self.rows, len(self.vars) * m))
        return {name: dense[:, k * m : (k + 1) * m] for k, name in enumerate(self.vars)}

    @cached_property
    def const(self) -> np.ndarray:
        return _view(gf2.unpack(self.const_bits, self.width))

    def evaluate(self, env: dict[str, np.ndarray]) -> np.ndarray:
        m = self.width
        v = 0
        for k, name in enumerate(self.vars):
            v |= gf2.pack(env[name]) << (k * m)
        out = self.const_bits
        for i, row in enumerate(self.rows):
            out ^= ((row & v).bit_count() & 1) << i
        return gf2.unpack(out, m)


def program_rows(
    G: VecGroupoid, prog: Sequence, roots: Sequence[int], names: Sequence[str]
) -> list[list[int]]:
    """The affine forms of the steps `roots` of a program (see
    terms.steps) as rows over the columns of `names`, in that order, with
    the constant in one extra column after them (see
    AffineTermForm.from_rows).  Step by step, each component's row is the
    XOR of the rows it reads of the step's factors."""
    m = G.width
    one = 1 << (len(names) * m)
    plan = [
        (one if (G.cbits >> i) & 1 else 0, xs, ys) for i, (xs, ys) in enumerate(G.sources)
    ]
    column = {name: k * m for k, name in enumerate(names)}
    forms: list[list[int]] = []
    for step in prog:
        if isinstance(step, str):
            forms.append([1 << (column[step] + j) for j in range(m)])
            continue
        left, right = forms[step[0]], forms[step[1]]
        rows = []
        for acc, xs, ys in plan:
            for j in xs:
                acc ^= left[j]
            for j in ys:
                acc ^= right[j]
            rows.append(acc)
        forms.append(rows)
    return [forms[root] for root in roots]


def term_affine_form(
    G: VecGroupoid, t: Term, names: Optional[Sequence[str]] = None
) -> AffineTermForm:
    """The affine form of t, with columns for `names` in that order
    (default: the variables of t)."""
    names = variables(t) if names is None else names
    return AffineTermForm.from_rows(names, G.width, program_rows(G, *steps([t]), names)[0])


def direct_sum(*factors: VecGroupoid) -> VecGroupoid:
    """Product groupoid as a block-diagonal operation.

    The first factor keeps its register names; each later factor is
    renamed to start just above the registers before it.
    """
    indices = list(factors[0].indices) if factors else []
    for G in factors[1:]:
        base = indices[-1] + 1 if indices else 0
        indices.extend(base + r - G.indices[0] for r in G.indices)
    xrows: list[int] = []
    yrows: list[int] = []
    cbits = 0
    lo = 0
    for G in factors:
        xrows.extend(row << lo for row in G.xrows)
        yrows.extend(row << lo for row in G.yrows)
        cbits |= G.cbits << lo
        lo += G.width
    return VecGroupoid(tuple(indices), tuple(xrows), tuple(yrows), cbits)


def to_cayley(G: VecGroupoid, max_bits: int = DEFAULT_TABLE_BITS) -> CayleyGroupoid:
    """Explicit table of order 2^width; refuses widths over max_bits.

    Component k of a vector sits at bit width-1-k of its element."""
    m = G.width
    if m > max_bits:
        raise ValueError(f"width {m} exceeds table bound {max_bits} bits")
    c = sum(((G.cbits >> i) & 1) << (m - 1 - i) for i in range(m))
    ax = _linear_images(G.xrows, m)
    byc = [v ^ c for v in _linear_images(G.yrows, m)]
    return CayleyGroupoid(tuple(tuple(a ^ v for v in byc) for a in ax))


def _linear_images(rows: Sequence[int], m: int) -> list[int]:
    """The image of every element under the matrix with these packed rows,
    filled by linearity: the elements below bit b, each XORed with the
    image of that bit, are the elements up to bit b + 1."""
    images = [0]
    for b in range(m):
        k = m - 1 - b  # the component at bit b
        image = sum(((row >> k) & 1) << (m - 1 - i) for i, row in enumerate(rows))
        images += [v ^ image for v in images]
    return images
