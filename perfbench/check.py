"""Independent re-checks of the program's outputs, run outside the timed region.

Nothing here calls termsep code: certificates are read from the JSON
documents the program emits, and terms are the generator's own tuples.
"""

from __future__ import annotations

import random

SAMPLES = 64  # assignments evaluated at once, one bit each
MASK = (1 << SAMPLES) - 1


def from_program_term(term, memo=None):
    """A termsep Term (Var/Mul) as a tuple term; shared subterms stay shared."""
    memo = {} if memo is None else memo
    out = memo.get(id(term))
    if out is None:
        if hasattr(term, "name"):
            out = term.name
        else:
            left = from_program_term(term.left, memo)
            out = (left, from_program_term(term.right, memo))
        memo[id(term)] = out
    return out


def substitute(t, binding: dict, memo=None):
    memo = {} if memo is None else memo
    if isinstance(t, str):
        return binding.get(t, t)
    out = memo.get(id(t))
    if out is None:
        left = substitute(t[0], binding, memo)
        out = memo[id(t)] = (left, substitute(t[1], binding, memo))
    return out


def variables(t) -> set:
    names, stack = set(), [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            names.add(node)
        else:
            stack.extend(node)
    return names


def witness_identifies(s, t, witness: dict) -> bool:
    """Does the one-variable substitution make s and t the same term?"""
    memo = {}
    binding = {name: from_program_term(term, memo) for name, term in witness.items()}
    if not (variables(s) | variables(t)) <= set(binding):
        return False
    if {v for b in binding.values() for v in variables(b)} - {"x"}:
        return False
    return substitute(s, binding) == substitute(t, binding)


def _rows(matrix) -> list[list[int]]:
    return [[j for j, bit in enumerate(row) if bit] for row in matrix]


def lambda_separates(s, t, groupoid: dict, lam, rng: random.Random) -> bool:
    """Evaluate s and t in the affine groupoid x*y = Ax + By + c of the JSON
    document on SAMPLES random assignments (bit-sliced), and require that
    the registers in lam sum to different parities on every one of them."""
    indices = groupoid["indices"]
    width = len(indices)
    if not lam or any(reg not in indices for reg in lam):
        return False
    a_rows, b_rows = _rows(groupoid["A"]), _rows(groupoid["B"])
    consts = [MASK if bit else 0 for bit in groupoid["c"]]
    env = {
        name: [rng.getrandbits(SAMPLES) for _ in range(width)]
        for name in sorted(variables(s) | variables(t))
    }

    def value(term):
        done = {}
        stack = [term]
        while stack:
            node = stack[-1]
            if isinstance(node, str):
                done[id(node)] = env[node]
                stack.pop()
                continue
            left, right = node
            missing = [c for c in (left, right) if id(c) not in done and not isinstance(c, str)]
            if missing:
                stack.extend(missing)
                continue
            x = env[left] if isinstance(left, str) else done[id(left)]
            y = env[right] if isinstance(right, str) else done[id(right)]
            z = []
            for i in range(width):
                acc = consts[i]
                for j in a_rows[i]:
                    acc ^= x[j]
                for j in b_rows[i]:
                    acc ^= y[j]
                z.append(acc)
            done[id(node)] = z
            stack.pop()
        return env[term] if isinstance(term, str) else done[id(term)]

    vs, vt = value(s), value(t)
    parity = 0
    for reg in lam:
        pos = indices.index(reg)
        parity ^= vs[pos] ^ vt[pos]
    return parity == MASK
