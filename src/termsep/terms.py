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
import weakref
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
    """Base class; instances are Var or Mul.  Terms are immutable and
    hash-consed: equal terms are one object, so == and hash are identity.

    Each class keeps its table, _live, as a plain dict from a node's key
    (a name, or the pair of factors) to a weakref.ref of the one live node
    with that key.  A node's __del__ deletes its own entry, unless the
    entry already refers to another live node: the cycle collector clears
    weak references before it runs finalisers, so a node it frees may find
    its entry dead, or taken by a new node with the same key.  The tables
    are not locked: build terms in one thread at a time."""

    __slots__ = ("__weakref__",)

    def __mul__(self, other: "Term") -> "Term":
        return Mul(self, other)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a term")

    def __reduce__(self):  # unpickled through the constructor, so interned
        return self.__class__, tuple(getattr(self, field) for field in self.__slots__)


_vars: dict = {}  # name -> weakref.ref of the one live Var
_muls: dict = {}  # (left, right) -> weakref.ref of the one live Mul
_ref = weakref.ref
_new = object.__new__


class Var(Term):
    __slots__ = ("name",)
    _live = _vars

    def __new__(cls, name: str):
        r = _vars.get(name)
        if r is not None:
            t = r()
            if t is not None:
                return t
        t = _new(cls)
        _set_name(t, name)
        _vars[name] = _ref(t)
        return t

    # the table is a default argument: module globals may already be None
    # when a node dies at interpreter exit
    def __del__(self, _live=_vars):
        r = _live.get(self.name)
        if r is not None:
            t = r()
            if t is None or t is self:
                del _live[self.name]

    def __repr__(self):
        return f"Var({self.name!r})"


class Mul(Term):
    __slots__ = ("left", "right")
    _live = _muls

    def __new__(cls, left: Term, right: Term):
        key = (left, right)
        r = _muls.get(key)
        if r is not None:
            t = r()
            if t is not None:
                return t
        t = _new(cls)
        _set_left(t, left)
        _set_right(t, right)
        _muls[key] = _ref(t)
        return t

    def __del__(self, _live=_muls):  # a default argument, as in Var
        key = (self.left, self.right)
        r = _live.get(key)
        if r is not None:
            t = r()
            if t is None or t is self:
                del _live[key]

    def __repr__(self):
        return f"parse_term({render_term(self)!r})"


# the slots' own setters, which Term.__setattr__ does not intercept
_set_name = Var.name.__set__
_set_left, _set_right = Mul.left.__set__, Mul.right.__set__


def variables(t: Term) -> list[str]:
    """Distinct variable names of t, sorted shortest-then-lexicographic.

    This key orders x1..x9, x10, x11.. the intuitive way and is the
    canonical variable order used for counterexample enumeration.
    """
    # a walk over the distinct products, each expanded once, so a term
    # with shared subterms costs its distinct nodes, not its leaves; the
    # factors are looked at where they are, so leaves never reach the stack
    if t.__class__ is Var:
        return [t.name]
    names = set()
    seen = set()
    stack = [t]
    while stack:
        node = stack.pop()
        factor = node.left
        if factor.__class__ is Var:
            names.add(factor.name)
        elif factor not in seen:
            seen.add(factor)
            stack.append(factor)
        factor = node.right
        if factor.__class__ is Var:
            names.add(factor.name)
        elif factor not in seen:
            seen.add(factor)
            stack.append(factor)
    return sorted(names, key=var_key)


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
    term needs no recursion.  Values are kept by node across all the
    roots, so each distinct subterm is computed once.
    """
    done: dict[Term, object] = {}
    for root in roots:
        stack: list = [root]
        while stack:
            t = stack.pop()
            if t is None:  # the factors of the node below are done
                t = stack.pop()
                done[t] = node(t, done[t.left], done[t.right])
            elif t in done:
                continue
            elif isinstance(t, Var):
                done[t] = leaf(t)
            else:  # visit the factors, left first, then t
                stack += (t, None, t.right, t.left)
    return [done[root] for root in roots]


def replace_leaves(roots: Sequence[Term], leaf: Callable[[Var], Term]) -> list[Term]:
    """The roots with every leaf v replaced by leaf(v).

    Each distinct subterm is rebuilt once, and one that leaf leaves
    unchanged comes back as the same object.
    """
    return fold(roots, leaf, lambda m, left, right: Mul(left, right))


def steps(terms: Sequence[Term]) -> tuple[list, list[int]]:
    """Distinct subterms of the terms in post-order, and each term's step.

    A step is a variable name or the pair of the earlier steps it
    multiplies, so evaluating the steps in order evaluates every term.
    Equal subterms are one node, so they share one step.  The walk is
    fold's, written out: callbacks per node made it about a quarter slower.
    """
    prog: list = []
    index: dict[Term, int] = {}
    for root in terms:
        stack: list = [root]
        while stack:
            t = stack.pop()
            if t is None:  # the factors of the node below are done
                t = stack.pop()
                index[t] = len(prog)
                prog.append((index[t.left], index[t.right]))
            elif t not in index:
                if t.__class__ is Var:
                    index[t] = len(prog)
                    prog.append(t.name)
                else:
                    stack += (t, None, t.right, t.left)
    return prog, [index[root] for root in terms]


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


# shared subterms let a term's text be exponentially longer than the term
MAX_RENDER_LEAVES = 2**20


def render_term(t: Term) -> str:
    """Inverse of parse_term; outermost parentheses omitted.  Raises
    ValueError for a term of more than MAX_RENDER_LEAVES leaves.

    A product that occurs more than once in t is rendered once, and its
    text is spliced in wherever it occurs."""
    uses: dict[Term, int] = {}  # subterm -> occurrences as a factor
    products: list[Term] = []  # the distinct products, factors first

    def count(m: Term, left: int, right: int) -> int:
        uses[m.left] = uses.get(m.left, 0) + 1
        uses[m.right] = uses.get(m.right, 0) + 1
        products.append(m)
        return left + right

    leaves = fold([t], lambda v: 1, count)[0]
    if leaves > MAX_RENDER_LEAVES:
        raise ValueError(f"{leaves} leaves exceed the render bound of {MAX_RENDER_LEAVES}")
    texts: dict[Term, str] = {}  # shared product -> its text, in parentheses
    for m in products:
        if uses.get(m, 0) > 1:
            texts[m] = _render(m, texts)
    text = _render(t, texts)
    return text[1:-1] if isinstance(t, Mul) else text


def _render(t: Term, texts: dict[Term, str]) -> str:
    """The text of t, in parentheses if a product, with the text of each
    proper subterm found in texts taken from there."""
    out = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(item.name)
        elif item in texts:
            out.append(texts[item])
        else:
            stack += (")", item.right, "*", item.left, "(")
    return "".join(out)


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

