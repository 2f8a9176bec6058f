"""Finite loop theory engine.

Loops as validated Cayley tables, inner mapping and automorphism groups,
generated subloops and the commuting-condition predicates, a small identity
DSL with a finite-model evaluator, half-isomorphism enumeration and
classification, and small-order catalogs for exhaustive verification.
"""
from .table import (
    LoopTable,
    LoopError,
    NotLatinSquare,
    NoIdentity,
    NoTwoSidedInverse,
    NoFiniteOrder,
    NotUniquely2Divisible,
    OrderTooLarge,
    make_loop,
    cyclic_group,
    direct_product,
    opposite,
    is_commutative,
    is_associative,
    is_flexible,
    has_aaip,
    is_power_associative,
    is_uniquely_2_divisible,
    squaring_map,
)
from .perms import (
    StabilizerChain,
    compose,
    invert,
    apply,
    identity_perm,
    inner_generators,
    schreier_sims,
    mlt_group,
    inn_group,
    is_automorphism,
    is_automorphic,
    automorphism_group,
    isomorphisms,
)
from .structure import (
    SubloopClosure,
    subloop_generated,
    commutant,
    satisfies_co1,
    satisfies_co2,
    check_cor21,
)
from .identities import (
    IdentityStatement,
    ParseError,
    InverseUnavailable,
    VariableCapExceeded,
    parse_identity,
    parse_identity_file,
    statement_to_text,
    evaluate,
    holds,
    builtin_library,
)
from .halfiso import (
    HalfIso,
    Classification,
    NotHalfIsomorphism,
    NotFlexible,
    make_half_iso,
    identity_half_iso,
    is_half_isomorphism,
    classify,
    speciality_criteria,
    enumerate_half_isos,
    naive_half_isos,
    is_semi_homomorphism,
    audit_theorem41,
    scan_conjecture51,
)
from .catalog import (
    parse_loop_file,
    write_loop_file,
    builtin_loop,
    builtin_loops,
    canonical_form,
    canonical_key,
    are_isomorphic,
    generate_loops,
)

__version__ = "0.1.0"
