"""The all-pairs cover and edge loops, kept as the reference for the one
walk of synth._frontier.

cover_pair compares every leaf of s with every leaf of t and keeps the
least (variable, |q|, q, p); cycle_edges lists, for every leaf u of one
term and every leaf d of another variable in the other term below it, the
entry (side of u, path of u, the rest of the path of d).  Both are
quadratic in the number of leaves.  leftmost_cover is the cover of the
paper's lemma for two distinct ordered terms, read off their occurrence
lists.  sweep_terms lists the small terms the comparisons run over.
"""

from __future__ import annotations

from termsep.synth import CoverWitness
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
