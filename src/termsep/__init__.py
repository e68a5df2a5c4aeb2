"""Separation of groupoid terms by explicit finite groupoids.

Decides whether two groupoid (magma) terms can be made never-equal,
synthesizes finite groupoids over GF(2) bit vectors certifying it, and
verifies every construction by exact linear algebra and brute force.
"""

from termsep.terms import (
    Term,
    Var,
    Mul,
    parse_term,
    render_term,
    occurrences,
    subterm_at,
    shape_of,
    catalan,
    enumerate_ordered_terms,
)
from termsep.cayley import (
    CayleyGroupoid,
    SeparationVerdict,
    eval_cayley,
    deranged_groupoid,
    product_groupoid,
    separations,
    separates_exhaustive,
    is_k_antiassociative,
)
from termsep.vecops import (
    BasicOp,
    OpSum,
    VecGroupoid,
    RegisterAllocator,
    basic_op,
    op_sum,
    compile_opsum,
    affine_groupoid,
    eval_vec,
    term_affine_form,
    direct_sum,
    to_cayley,
)
from termsep.unify import (
    UnifyOutcome,
    unify,
    apply_subst,
    decide_abstract_separability,
)
from termsep.synth import (
    CoverWitness,
    CycleWitness,
    Certificate,
    find_cover_pair,
    synth_cover,
    find_cycle,
    synth_cycle,
    antiassociative_certificates,
    build_k_antiassociative,
    search_separator,
    decide_finite_separability,
)
from termsep.verify import (
    AffineDecision,
    affine_separation_decision,
    cross_check,
    lemma_harness,
)
from termsep.census import CensusReport

__all__ = [name for name in dir() if not name.startswith("_")]
