"""Separation of groupoid terms by explicit finite groupoids.

Decides whether two groupoid (magma) terms can be made never-equal,
synthesizes finite groupoids over GF(2) bit vectors certifying it, and
verifies every construction by exact linear algebra and brute force.

The package root holds no names.  Import from its modules: terms and
unify (terms and unification), vecops and gf2 (affine groupoids over
GF(2)), synth (certificates), verify (their checks), cayley (operation
tables and brute force), census, and cli (the `termsep` command).
"""
