"""Groupoid term trees: parsing, paths, folds, step programs, and
ordered-term enumeration.

A term is a full binary tree with variable names at the leaves.  Nodes are
addressed by paths, strings over 'l'/'r' with the empty string for the root
(rendered as '^' in human-facing output).  No walk over a term here
recurses, so a deep term needs no more stack than a shallow one.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

SENTINEL = "χ"  # the shape placeholder variable, ASCII alias "chi"

MAX_ENUM_VARS = 16


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class InvalidPathError(ValueError):
    pass


class Term:
    """Base class; instances are Var or Mul."""

    __slots__ = ()

    def __mul__(self, other: "Term") -> "Term":
        return Mul(self, other)


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __repr__(self):
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term

    def __eq__(self, other):
        """Structural equality on an explicit stack, comparing each pair of
        node objects once, so shared subterms are not walked again."""
        if self is other:
            return True
        if other.__class__ is not Mul:
            return NotImplemented
        seen: set[tuple[int, int]] = set()  # node pairs already pushed
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for x, y in ((a.right, b.right), (a.left, b.left)):
                if x is y:
                    continue
                if x.__class__ is not y.__class__:
                    return False
                if x.__class__ is Var:
                    if x.name != y.name:
                        return False
                elif (id(x), id(y)) not in seen:
                    seen.add((id(x), id(y)))
                    stack.append((x, y))
        return True

    def __hash__(self):
        return fold([self], hash, lambda m, left, right: hash((left, right)))[0]

    def __repr__(self):
        return f"parse_term({render_term(self)!r})"


def variables(t: Term) -> list[str]:
    """Distinct variable names of t, sorted shortest-then-lexicographic.

    This key orders x1..x9, x10, x11.. the intuitive way and is the
    canonical variable order used for counterexample enumeration.
    """
    # a plain walk: the decision calls this for every search candidate, and
    # occurrences() would build a path string per leaf
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            seen.add(node.name)
        else:
            stack += (node.left, node.right)
    return sorted(seen, key=var_key)


def var_key(name: str):
    return (len(name), name)


def occurrences(t: Term) -> list[tuple[str, str]]:
    """All leaves of t as (path, variable name), left to right."""
    # an explicit stack, not a closure that calls itself: such a closure is
    # a reference cycle, and deep terms would exceed the recursion limit
    out: list[tuple[str, str]] = []
    stack = [(t, "")]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Var):
            out.append((path, node.name))
        else:
            stack += ((node.right, path + "r"), (node.left, path + "l"))
    return out


def subterm_at(t: Term, path: str) -> Term:
    node = t
    for i, step in enumerate(path):
        if isinstance(node, Var):
            raise InvalidPathError(f"path {path!r} leaves the tree after {path[:i]!r}")
        if step == "l":
            node = node.left
        elif step == "r":
            node = node.right
        else:
            raise InvalidPathError(f"bad path character {step!r} in {path!r}")
    return node


def fold(roots: Sequence[Term], leaf: Callable, node: Callable) -> list:
    """Fold each root to one value, from leaf(v) at a Var and node(m, left,
    right) at a Mul, given the values of its factors.

    The walk is post-order, left factor first, on its own stack, so a deep
    term needs no recursion.  Values are kept by node id across all the
    roots, so a node object reached again is computed once.
    """
    done: dict[int, object] = {}
    for root in roots:
        stack: list = [root]
        while stack:
            t = stack.pop()
            if t is None:  # the factors of the node below are done
                t = stack.pop()
                done[id(t)] = node(t, done[id(t.left)], done[id(t.right)])
                continue
            key = id(t)
            if key in done:
                continue
            if isinstance(t, Var):
                done[key] = leaf(t)
            else:  # visit the factors, left first, then t
                stack += (t, None, t.right, t.left)
    return [done[id(root)] for root in roots]


def _rebuilt(m: Mul, left: Term, right: Term) -> Term:
    return m if left is m.left and right is m.right else Mul(left, right)


def replace_leaves(roots: Sequence[Term], leaf: Callable[[Var], Term]) -> list[Term]:
    """The roots with every leaf v replaced by leaf(v).

    A node whose factors both come back unchanged is returned as it is, and
    a node shared by the roots is rebuilt once, so shared subterms stay
    shared and == between results stops at identical objects.
    """
    return fold(roots, leaf, _rebuilt)


def steps(terms: Sequence[Term]) -> tuple[list, list[int]]:
    """Distinct subterms of the terms in post-order, and each term's step.

    A step is a variable name or the pair of the earlier steps it
    multiplies, so evaluating the steps in order evaluates every term.
    Equal subterms share one step, and a subterm object shared between
    terms is walked once.
    """
    index: dict = {}  # step -> its position, in the order first met
    roots = fold(
        terms,
        lambda v: index.setdefault(v.name, len(index)),
        lambda m, left, right: index.setdefault((left, right), len(index)),
    )
    return list(index), roots


def shape_of(t: Term) -> Term:
    """Same tree with every leaf replaced by the sentinel variable."""
    chi = Var(SENTINEL)
    return replace_leaves([t], lambda v: chi)[0]


def is_proper_prefix(q: str, p: str) -> bool:
    return len(q) < len(p) and p.startswith(q)


# --- text syntax -----------------------------------------------------------
#
#   term := factor | factor '*' factor
#   factor := var | '(' term ')'
#
# so redundant parentheses are allowed, as in (x) or ((x*y)), and a
# product of three factors needs parentheses: x*y*z is rejected.

# a name, or one other character, after any white space; "" at the end
_TOKEN = re.compile(r"\s*(\w+|\S|\Z)")


def parse_term(text: str) -> Term:
    """Parse on an explicit stack, so a deep term needs no recursion."""
    tokens = _TOKEN.findall(text)
    i = 0
    # what each finished subterm still waits for, innermost last: "*" (it
    # is a term's first factor, so a '*' and a second factor may follow),
    # ")" or "" (that token must follow), or a Term (it is the second
    # factor of that first factor)
    pending: list = ["", "*"]
    while True:
        token = tokens[i]
        while token == "(":
            pending += (")", "*")
            i += 1
            token = tokens[i]
        if not token[:1].isalpha():
            raise _parse_error(text, i, "expected variable or '('")
        value: Term = Var(SENTINEL if token == "chi" else token)
        i += 1
        while True:
            want = pending.pop()
            if isinstance(want, Term):
                value = Mul(want, value)
                continue
            token = tokens[i]
            if want == "*":
                if token == "*":
                    pending.append(value)
                    i += 1
                    break
            elif token != want:
                raise _parse_error(text, i, "expected ')'" if want else "trailing input")
            elif want:
                i += 1
            else:
                return value


def _parse_error(text: str, token: int, message: str) -> ParseError:
    """The error at the start of the token-th token of text."""
    match = next(itertools.islice(_TOKEN.finditer(text), token, None))
    return ParseError(message, match.start(1))


def render_term(t: Term) -> str:
    """Inverse of parse_term; outermost parentheses omitted."""
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


# --- ordered terms ---------------------------------------------------------

def catalan(m: int) -> int:
    if m < 0:
        raise ValueError("m must be nonnegative")
    return math.comb(2 * m, m) // (m + 1)


def enumerate_ordered_terms(k: int) -> list[Term]:
    """All ordered terms on x1..xk, each exactly once.

    Output order matches the customary listing: at every node the right
    factor grows from a single variable upward, so for k=4 the first term
    is ((x1*x2)*x3)*x4 and the last is x1*(x2*(x3*x4)).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_ENUM_VARS:
        raise ValueError(f"k={k} exceeds enumeration bound {MAX_ENUM_VARS}")
    return list(_enum_range(1, k))


@lru_cache(maxsize=None)
def _enum_range(lo: int, hi: int) -> tuple[Term, ...]:
    if lo == hi:
        return (Var(f"x{lo}"),)
    out = []
    for split in range(hi - 1, lo - 1, -1):
        for left in _enum_range(lo, split):
            for right in _enum_range(split + 1, hi):
                out.append(Mul(left, right))
    return tuple(out)


def is_ordered_term(t: Term) -> bool:
    names = [name for _, name in occurrences(t)]
    return names == [f"x{i}" for i in range(1, len(names) + 1)]


def leftmost_disagreement(s: Term, t: Term) -> tuple[int, str, str]:
    """First variable position where two ordered terms place paths apart.

    Returns (m, path_in_s, path_in_t) for the 1-based index m of the
    leftmost variable whose paths differ.  One path is always a proper
    initial substring of the other.
    """
    if not (is_ordered_term(s) and is_ordered_term(t)):
        raise ValueError("inputs must be ordered terms on x1..xk")
    occ_s = occurrences(s)
    occ_t = occurrences(t)
    if len(occ_s) != len(occ_t):
        raise ValueError("ordered terms must share one variable list")
    for i, ((ps, _), (pt, _)) in enumerate(zip(occ_s, occ_t)):
        if ps != pt:
            return i + 1, ps, pt
    raise ValueError("terms are equal")
