"""The forward parity check, kept as the reference for the pullback in
verify.check_parity_functionals.

It builds the affine form of every step of the pairs' program, one row
over all the variables' columns per register (vecops.program_rows), and
lam passes iff the sum of its rows of s + t is the constant 1 alone.
"""

from __future__ import annotations

from termsep.terms import steps
from termsep.vecops import program_rows


def check_parity_functionals(G, pairs, lams) -> list[bool]:
    prog, roots = steps([term for pair in pairs for term in pair])
    names = [step for step in prog if isinstance(step, str)]
    forms = program_rows(G, prog, roots, names)
    one = 1 << (len(names) * G.width)
    verdicts = []
    for S, T, lam in zip(forms[::2], forms[1::2], lams, strict=True):
        total = 0
        for reg in lam:
            j = G.position(reg)
            total ^= S[j] ^ T[j]
        verdicts.append(total == one)
    return verdicts
