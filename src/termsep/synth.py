"""Constructive separation of term pairs.

Pipeline: unification rules out the impossible pairs; a cover (one
variable occurring above itself across the two terms) yields a
two-summand parity groupoid; a cycle of above-relations yields the
extended construction; a bounded stratified search is the fallback.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from termsep.terms import (
    InvalidPathError,
    Mul,
    Term,
    Var,
    catalan,
    enumerate_ordered_terms,
    is_proper_prefix,
    occurrences,
    render_term,
    subterm_at,
    var_key,
    variables,
)
from termsep.unify import AbstractSeparability, decide_abstract_separability
from termsep.vecops import (
    OpSum,
    RegisterAllocator,
    VecGroupoid,
    basic_op,
    compile_opsum,
    direct_sum,
    op_sum,
)
from termsep.verify import affine_separation_decision

DEFAULT_SEARCH_BUDGET = 20000
MAX_ANTIASSOC_PAIRS = 10_000  # k=7 has 8,646 pairs, k=8 has 91,806


def _flip(side: str) -> str:
    return "t" if side == "s" else "s"


@dataclass(frozen=True)
class CoverWitness:
    """One variable with cross-term occurrence paths q and p = q.w, w != ''."""

    variable: str
    shallow_side: str  # 's' or 't': the term holding the short path q
    q: str
    deep_side: str
    p: str

    def __post_init__(self):
        if self.shallow_side == self.deep_side:
            raise ValueError("cover occurrences must lie in different terms")
        if not is_proper_prefix(self.q, self.p):
            raise ValueError("q must be a proper initial substring of p")

    @property
    def w(self) -> str:
        return self.p[len(self.q) :]


def _frontier(s: Term, t: Term):
    """Walk s and t together over the positions both have, in pre-order,
    left first, which is the lexicographic order of the positions.  At
    each position where one term has a leaf v, yield (path, side of the
    leaf, v, the other term's subterm there).

    path is the list of directions to the position.  The walk shares it
    and changes it at the next step, so join it before going on.  Every
    pair of leaves, one in each term, where one path is a prefix of the
    other is one such leaf and one leaf of its subterm.  The subterms of
    distinct yielded leaves are disjoint.
    """
    # each stack entry carries the depth of its parent position and its
    # step as a 1-tuple, which a slice assignment takes several times
    # faster than a 1-character string
    path: list[str] = []
    stack = [(s, t, 0, ())]
    while stack:
        a, b, at, step = stack.pop()
        path[at:] = step
        if a.__class__ is Mul:
            if b.__class__ is Mul:
                n = len(path)
                stack += ((a.right, b.right, n, ("r",)), (a.left, b.left, n, ("l",)))
            else:
                yield path, "t", b.name, a
        else:
            yield path, "s", a.name, b
            if b.__class__ is Var:
                yield path, "t", b.name, a


def _occurs(name: str, term: Term) -> bool:
    """Whether name is a leaf of term; stops at the first one found."""
    stack = [term]
    while stack:
        node = stack.pop()
        if node.__class__ is Mul:
            stack += (node.right, node.left)
        elif node.name == name:
            return True
    return False


def _paths_to(term: Term, name: str):
    """The path in term of each leaf name, left to right, so in
    lexicographic order.  One list of directions is shared by the walk; a
    string is built only for a leaf that is yielded."""
    path: list[str] = []
    stack = [(term, 0, ())]
    while stack:
        node, at, step = stack.pop()
        path[at:] = step
        if node.__class__ is Mul:
            n = len(path)
            stack += ((node.right, n, ("r",)), (node.left, n, ("l",)))
        elif node.name == name:
            yield "".join(path)


def find_cover_pair(s: Term, t: Term) -> Optional[CoverWitness]:
    """Smallest witness (variable, then q length, then lexicographic, then
    p).

    The frontier visits positions in lexicographic order, so of the
    positions with equal (variable, |q|) the first visited has the least
    q: a position is searched only if its key is smaller than the best
    so far.  The search stops at the first leaf found, and the paths are
    spelt only for the witness, p being the leftmost occurrence below q.
    """
    best = None
    for path, side, name, below in _frontier(s, t):
        if below.__class__ is Var:
            continue
        key = (var_key(name), len(path))
        if (best is None or key < best[0]) and _occurs(name, below):
            best = (key, "".join(path), side, name, below)
    if best is None:
        return None
    _, q, side, name, below = best
    return CoverWitness(name, side, q, _flip(side), q + next(_paths_to(below, name)))


@dataclass(frozen=True)
class Certificate:
    """A compiled groupoid plus the parity functional that separates.

    lam names output registers whose GF(2) sum takes constantly different
    values on the two terms; verify.affine_separation_decision checks it.
    """

    opsum: OpSum
    groupoid: VecGroupoid
    kind: str  # cover | cycle | search
    lam: frozenset[int]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "opsum": self.opsum.to_json(),
            "groupoid": self.groupoid.to_json(),
            "lambda": sorted(self.lam),
        }


def synth_cover(witness: CoverWitness) -> Certificate:
    """||1,q,0|| + ||1,w,1||' ; the shallow term reads x[1] on register 0
    and the deep term reads x[1]+1 there.  With q empty (the shallow term
    is the bare variable) the first summand is dropped and the parity
    lives on register 1 instead."""
    alloc = RegisterAllocator()
    alloc.reserve((0, 1))
    if witness.q:
        ops = [
            basic_op(1, witness.q, 0, allocator=alloc),
            basic_op(1, witness.w, 1, tweaked=True, allocator=alloc),
        ]
        lam = frozenset({0})
    else:
        ops = [basic_op(1, witness.w, 1, tweaked=True, allocator=alloc)]
        lam = frozenset({1})
    opsum = op_sum(ops)
    return Certificate(opsum, compile_opsum(opsum), "cover", lam)


@dataclass(frozen=True)
class CycleWitness:
    """A minimal closed chain of above-relations with a strict first edge.

    Entry i records the up-occurrence of y_i at (u_side[i], p[i]); the
    down-occurrence of y_{i+1} then sits in the other term at p[i]+q[i].
    """

    variables: tuple[str, ...]
    u_side: tuple[str, ...]
    p: tuple[str, ...]
    q: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.variables)

    @property
    def strict_indices(self) -> frozenset[int]:
        """The set N of edges whose prefix relation is proper."""
        return frozenset(i for i, qi in enumerate(self.q) if qi)

    def class_map(self) -> dict[int, int]:
        """f(i): least index in the run of q=empty edges containing i."""
        k = self.k
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                i = parent[i] = parent[parent[i]]
            return i

        for i in range(k):
            if not self.q[i]:
                a, b = find(i), find((i + 1) % k)
                if a != b:
                    parent[max(a, b)] = min(a, b)
        classes: dict[int, list[int]] = {}
        for i in range(k):
            classes.setdefault(find(i), []).append(i)
        return {i: min(members) for root, members in classes.items() for i in members}

    def validate(self, s: Term, t: Term):
        if self.k < 2:
            raise ValueError("cycle witnesses need length >= 2")
        if len(set(self.variables)) != self.k:
            raise ValueError("cycle variables must be distinct")
        if not self.q[0]:
            raise ValueError("first edge must be strict (q0 nonempty)")
        terms = {"s": s, "t": t}
        for i in range(self.k):
            j = (i + 1) % self.k
            up = (self.p[i], self.variables[i])
            down = (self.p[i] + self.q[i], self.variables[j])
            if not _is_leaf(terms[self.u_side[i]], *up):
                raise ValueError(f"up occurrence {up} missing from {self.u_side[i]}")
            if not _is_leaf(terms[_flip(self.u_side[i])], *down):
                raise ValueError(f"down occurrence {down} missing")
        for i, j in itertools.permutations(range(self.k), 2):
            if self.p[j].startswith(self.p[i]):
                raise ValueError(f"p[{i}] is an initial substring of p[{j}]")


def _is_leaf(term: Term, path: str, name: str) -> bool:
    try:
        node = subterm_at(term, path)
    except InvalidPathError:
        return False
    return node.__class__ is Var and node.name == name


def _chain_options(s: Term, t: Term, chain: list[str]) -> list[list[tuple[str, str, str]]]:
    """For each edge (chain[i], chain[i+1]) of a cycle, each (side, path of
    u, w) where u = chain[i] occurs in side at that path and chain[i+1] in
    the other term at path + w; each list sorted by (|path|, path, |w|, w,
    side)."""
    index = {name: i for i, name in enumerate(chain)}
    options: list[list[tuple[str, str, str]]] = [[] for _ in chain]
    for path, side, name_u, below in _frontier(s, t):
        i = index.get(name_u)
        if i is not None:
            path_u = "".join(path)
            name_d = chain[(i + 1) % len(chain)]
            options[i] += ((side, path_u, w) for w in _paths_to(below, name_d))
    for opts in options:
        opts.sort(key=lambda e: (len(e[1]), e[1], len(e[2]), e[2], e[0]))
    return options


def find_cycle(s: Term, t: Term) -> Optional[CycleWitness]:
    """Minimum-length cycle (k >= 2) through some strict above-edge.

    Edges run from a variable occurrence in one term to an occurrence of
    another variable in the other term whose path it prefixes.  Length-1
    cycles are covers and belong to find_cover_pair.
    """
    # (u, d) -> whether the edge is strict: d lies strictly below some
    # frontier leaf u, that is in a product there
    edges: dict[tuple[str, str], bool] = {}
    for _, _, name_u, below in _frontier(s, t):
        if below.__class__ is Var:
            if below.name != name_u:
                edges.setdefault((name_u, below.name), False)
        else:
            for name_d in variables(below):
                if name_d != name_u:
                    edges[(name_u, name_d)] = True
    adjacency: dict[str, list[str]] = {}
    for (a, b) in edges:
        adjacency.setdefault(a, []).append(b)
    for nbrs in adjacency.values():
        nbrs.sort(key=var_key)

    strict_edges = sorted(
        (pair for pair, strict in edges.items() if strict),
        key=lambda pair: (var_key(pair[0]), var_key(pair[1])),
    )
    best: Optional[tuple] = None
    for a, b in strict_edges:
        # shortest path b -> a completes the cycle a -> b -> ... -> a
        dist = {b: 0}
        prev: dict[str, str] = {}
        queue = deque([b])
        while queue:
            node = queue.popleft()
            if node == a:
                break
            for nxt in adjacency.get(node, []):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    prev[nxt] = node
                    queue.append(nxt)
        if a not in dist:
            continue
        chain = [a]
        node = a
        while node != b:
            node = prev[node]
            chain.append(node)
        # the prev walk lists a, ..., b; the cycle must read a -> b -> ...
        # so that the strict edge (a, b) comes first
        chain[1:] = chain[:0:-1]
        length = len(chain)
        key = (length, tuple(var_key(v) for v in chain))
        if best is None or key < best[0]:
            best = (key, chain)
    if best is None:
        return None
    chain = best[1]

    # Pick concrete occurrences edge by edge; the first edge must be
    # strict.  Occurrence choices rarely interact, but validation enforces
    # the no-mutual-prefix claim, so fall back over the product if needed.
    option_lists = _chain_options(s, t, chain)
    option_lists[0] = [o for o in option_lists[0] if o[2]]
    for combo in itertools.product(*option_lists):
        witness = CycleWitness(
            tuple(chain),
            tuple(o[0] for o in combo),
            tuple(o[1] for o in combo),
            tuple(o[2] for o in combo),
        )
        try:
            witness.validate(s, t)
        except ValueError:
            continue
        return witness
    return None


def cycle_opsum(witness: CycleWitness, tweak: bool = True) -> OpSum:
    """Sum of ||k+f(i),p_i,i|| plus carrier transfers ||k+f(i+1),q_i,k+f(i)||
    for the strict edges.  With tweak the first carrier transfer flips its
    constant, which is what breaks the parity tie between the two terms."""
    k = witness.k
    f = witness.class_map()
    alloc = RegisterAllocator()
    alloc.reserve(range(2 * k))
    ops = [
        basic_op(k + f[i], witness.p[i], i, allocator=alloc) for i in range(k)
    ]
    for i in sorted(witness.strict_indices):
        ops.append(
            basic_op(
                k + f[(i + 1) % k],
                witness.q[i],
                k + f[i],
                tweaked=(tweak and i == 0),
                allocator=alloc,
            )
        )
    return op_sum(ops)


def synth_cycle(witness: CycleWitness) -> Certificate:
    opsum = cycle_opsum(witness, tweak=True)
    return Certificate(opsum, compile_opsum(opsum), "cycle", frozenset(range(witness.k)))


def antiassociative_certificates(k: int) -> list[tuple[tuple[Term, Term], Certificate]]:
    """One cover certificate per pair of distinct ordered k-ary terms.

    The certificates' groupoids are the factors of a k-antiassociative
    groupoid.  Pairs whose witnesses share q and w share one certificate
    object.  Raises ValueError for k < 3 or more than MAX_ANTIASSOC_PAIRS
    pairs, before any term is built.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    count = math.comb(catalan(k - 1), 2)
    if count > MAX_ANTIASSOC_PAIRS:
        raise ValueError(f"{count} pairs exceed budget {MAX_ANTIASSOC_PAIRS}")
    shared: dict[tuple[str, str], Certificate] = {}
    out = []
    for s, t in itertools.combinations(enumerate_ordered_terms(k), 2):
        witness = find_cover_pair(s, t)
        key = (witness.q, witness.w)  # all that synth_cover reads
        if key not in shared:
            shared[key] = synth_cover(witness)
        out.append(((s, t), shared[key]))
    return out


def build_k_antiassociative(k: int):
    """Direct sum of per-pair cover groupoids over all ordered-term pairs.

    Returns (groupoid, certificates) where each certificate records the
    pair it separates.
    """
    certificates = antiassociative_certificates(k)
    return direct_sum(*(cert.groupoid for _, cert in certificates)), certificates


def _candidate_paths(s: Term, t: Term) -> list[str]:
    pool = set()
    for term in (s, t):
        for path, _ in occurrences(term):
            for i in range(1, len(path) + 1):
                pool.add(path[:i])
    return sorted(pool, key=lambda p: (len(p), p))


def _candidate_opsums(s: Term, t: Term) -> Iterable[OpSum]:
    """Stratified candidate stream: by summand count, then total path
    length, then pool order.  Registers follow the chain convention of the
    cover construction: sources from 1..max, targets from 0..max."""
    specs = [  # (m, p, n, tweaked), in the pool order of the stream
        (m, p, n, tweaked)
        for p in _candidate_paths(s, t)
        for m in (1, 2)
        for n in (0, 1, 2)
        for tweaked in (False, True)
    ]
    for count in (1, 2):
        # parity needs exactly one tweak, and two summands need distinct
        # targets: the internal registers are fresh above every m and n,
        # so these are the only sums op_sum would refuse
        combos = [
            combo
            for combo in itertools.combinations(specs, count)
            if sum(sp[3] for sp in combo) == 1 and len({sp[2] for sp in combo}) == count
        ]
        combos.sort(key=lambda combo: sum(len(sp[1]) for sp in combo))
        for combo in combos:
            alloc = RegisterAllocator()
            alloc.reserve(reg for sp in combo for reg in (sp[0], sp[2]))
            yield op_sum([basic_op(m, p, n, tweaked, alloc) for m, p, n, tweaked in combo])


def search_separator(
    s: Term,
    t: Term,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seeds: Sequence[OpSum] = (),
) -> Optional[Certificate]:
    """Try candidate OpSums (seeds first) against the affine decision.

    Returns a certificate for the first candidate whose compiled groupoid
    separates the pair, or None (Unknown) when the budget runs out.
    Callers must have ruled out unifiability already.
    """
    tried = 0
    for opsum in itertools.chain(seeds, _candidate_opsums(s, t)):
        if tried >= budget:
            return None
        tried += 1
        groupoid = compile_opsum(opsum)
        decision = affine_separation_decision(groupoid, s, t)
        if decision.separated and decision.lam is not None:
            return Certificate(opsum, groupoid, "search", frozenset(decision.lam))
    return None


@dataclass(frozen=True)
class SeparabilityResult:
    verdict: str  # not_separable | separated | unknown
    construction: Optional[str] = None  # unifier | cover | cycle | search
    certificate: Optional[Certificate] = None
    unifier: Optional[AbstractSeparability] = None

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "construction": self.construction}
        if self.certificate is not None:
            out.update(self.certificate.to_json())
        if self.unifier is not None and self.unifier.witness is not None:
            out["unifier"] = {
                name: render_term(term) for name, term in self.unifier.witness.items()
            }
        return out


def decide_finite_separability(
    s: Term, t: Term, search_budget: int = DEFAULT_SEARCH_BUDGET
) -> SeparabilityResult:
    """unify -> cover -> cycle -> bounded search."""
    abstract = decide_abstract_separability(s, t)
    if not abstract.separable:
        return SeparabilityResult("not_separable", "unifier", unifier=abstract)
    cover = find_cover_pair(s, t)
    if cover is not None:
        return SeparabilityResult("separated", "cover", synth_cover(cover))
    cycle = find_cycle(s, t)
    if cycle is not None:
        return SeparabilityResult("separated", "cycle", synth_cycle(cycle))
    cert = search_separator(s, t, budget=search_budget)
    if cert is not None:
        return SeparabilityResult("separated", "search", cert)
    return SeparabilityResult("unknown")
