"""All-pairs cover and cycle searches, kept as the reference for the
early-exit walk of synth.find_cover_pair and synth.find_cycle.

cover_pair compares every leaf of s with every leaf of t and keeps the
least (variable, |q|, q, p).  cycle_edges lists, for every leaf u of one
term and every leaf d of another variable in the other term below it, the
entry (side of u, path of u, the rest of the path of d).  cycle picks a
cycle from those lists as find_cycle did when it read them, and checks
each candidate against the occurrence sets of both terms.  All three spell
every leaf's path and are quadratic in the number of leaves.
leftmost_cover is the cover of the paper's lemma for two distinct ordered
terms, read off their occurrence lists.  sweep_terms lists the small
terms the comparisons run over.
"""

from __future__ import annotations

import itertools
from collections import deque

from termsep.synth import CoverWitness, CycleWitness
from termsep.terms import Mul, Term, Var, is_proper_prefix, occurrences, var_key


def cover_pair(s: Term, t: Term):
    best = None
    for path_s, name in occurrences(s):
        for path_t, name_t in occurrences(t):
            if name != name_t:
                continue
            if is_proper_prefix(path_t, path_s):
                cand = CoverWitness(name, "t", path_t, "s", path_s)
            elif is_proper_prefix(path_s, path_t):
                cand = CoverWitness(name, "s", path_s, "t", path_t)
            else:
                continue
            key = (var_key(name), len(cand.q), cand.q, cand.p)
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1] if best else None


def cycle_edges(s: Term, t: Term) -> dict:
    occ = {"s": occurrences(s), "t": occurrences(t)}
    edges: dict = {}
    for side, other in (("s", "t"), ("t", "s")):
        for path_u, name_u in occ[side]:
            for path_d, name_d in occ[other]:
                if name_u != name_d and path_d.startswith(path_u):
                    entry = (side, path_u, path_d[len(path_u) :])
                    edges.setdefault((name_u, name_d), []).append(entry)
    for options in edges.values():
        options.sort(key=lambda e: (len(e[1]), e[1], len(e[2]), e[2], e[0]))
    return edges


def cycle(s: Term, t: Term):
    """Minimum-length cycle through a strict edge, least variables first;
    the first combination of sorted options whose witness is valid."""
    edges = cycle_edges(s, t)
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    for nbrs in adjacency.values():
        nbrs.sort(key=var_key)
    strict_edges = sorted(
        (pair for pair, opts in edges.items() if any(w for _, _, w in opts)),
        key=lambda pair: (var_key(pair[0]), var_key(pair[1])),
    )
    best = None
    for a, b in strict_edges:
        dist, prev, queue = {b: 0}, {}, deque([b])
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
        while chain[-1] != b:
            chain.append(prev[chain[-1]])
        chain[1:] = chain[:0:-1]
        key = (len(chain), tuple(var_key(v) for v in chain))
        if best is None or key < best[0]:
            best = (key, chain)
    if best is None:
        return None
    chain = best[1]
    k = len(chain)
    option_lists = [edges[(chain[i], chain[(i + 1) % k])] for i in range(k)]
    option_lists[0] = [o for o in option_lists[0] if o[2]]
    occ = {"s": set(occurrences(s)), "t": set(occurrences(t))}
    for combo in itertools.product(*option_lists):
        sides, ps, qs = zip(*combo)
        if all(
            (ps[i], chain[i]) in occ[sides[i]]
            and (ps[i] + qs[i], chain[(i + 1) % k]) in occ["t" if sides[i] == "s" else "s"]
            for i in range(k)
        ) and not any(ps[j].startswith(ps[i]) for i, j in itertools.permutations(range(k), 2)):
            return CycleWitness(tuple(chain), sides, ps, qs)
    return None


def leftmost_disagreement(s: Term, t: Term) -> tuple[int, str, str]:
    """(m, path in s, path in t) of the first variable x_m whose paths in
    two distinct ordered terms differ."""
    pairs = zip(occurrences(s), occurrences(t))
    return next((i + 1, ps, pt) for i, ((ps, _), (pt, _)) in enumerate(pairs) if ps != pt)


def leftmost_cover(s: Term, t: Term) -> CoverWitness:
    """CoverWitness raises unless one of the two paths properly prefixes
    the other, as the lemma says."""
    m, ps, pt = leftmost_disagreement(s, t)
    if is_proper_prefix(ps, pt):
        return CoverWitness(f"x{m}", "s", ps, "t", pt)
    return CoverWitness(f"x{m}", "t", pt, "s", ps)


def sweep_terms() -> list[Term]:
    """Every term of at most four leaves over x, y, z: 471 terms, so
    110,685 pairs."""
    by_leaves = {1: [Var(v) for v in "xyz"]}
    for n in range(2, 5):
        by_leaves[n] = [
            Mul(a, b) for k in range(1, n) for a in by_leaves[k] for b in by_leaves[n - k]
        ]
    return [t for n in range(1, 5) for t in by_leaves[n]]
