"""Exact computer algebra for finite-dimensional triple systems.

Triple systems are presented by sparse structure tables over a
multiplicative basis; all arithmetic is exact over the rationals.  The
package verifies the Leibniz triple-system identities, computes the
deviation ideal and the adapted basis split, partitions the index set by
connections, decomposes the system into orthogonal component ideals, and
decides minimality.
"""

from .errors import (
    CapExceeded,
    ConfinementError,
    DimensionError,
    DuplicateEntry,
    InconsistentSplit,
    InternalError,
    NotAdapted,
    NotAdmissible,
    NotLeibniz,
    NotMultiplicative,
    NotReversible,
    ParseError,
    TheoremViolation,
    TriSysError,
    ZeroCoefficient,
)
from .exactnum import (
    Rational,
    RowSpace,
    Vector,
    basis_vector,
    rat_canon,
    rat_parse,
    rat_str,
    rowspace_from,
    span_contains,
    span_insert,
    zero_vector,
)
from .system import (
    BilinearTable,
    IdentityReport,
    TripleSystem,
    check_identities,
    check_leibniz,
    construct_bilinear,
    construct_system,
    evaluate_product,
    lift_from_leibniz,
)
from .jideal import (
    IdealWitness,
    SplitSystem,
    check_annihilation,
    compute_jideal,
    generator_vectors,
    ideal_closure,
    is_ideal,
    split_basis,
    split_system,
)
from .connect import (
    ConnectionWitness,
    MarkedIndex,
    Partition,
    bar,
    barred,
    map_a,
    map_b,
    mu,
    partition,
    phi,
    plain,
    reachable,
    reverse_connection,
    validate_witness,
)
from .decompose import (
    Component,
    DecompositionReport,
    MinimalityVerdict,
    MuViolation,
    check_decomposition,
    check_orthogonal,
    components,
    enumerate_inherited_ideals,
    is_minimal,
    minimality_oracle,
    mu_multiplicativity_check,
)
from .fileformat import (
    content_hash,
    parse_leibniz,
    parse_system,
    serialize_leibniz,
    serialize_system,
)

__all__ = [
    "CapExceeded", "ConfinementError", "DimensionError", "DuplicateEntry",
    "InconsistentSplit", "InternalError", "NotAdapted", "NotAdmissible", "NotLeibniz",
    "NotMultiplicative", "NotReversible", "ParseError", "TheoremViolation", "TriSysError",
    "ZeroCoefficient", "Rational", "RowSpace", "Vector", "basis_vector", "rat_canon",
    "rat_parse", "rat_str", "rowspace_from", "span_contains", "span_insert", "zero_vector",
    "BilinearTable", "IdentityReport", "TripleSystem", "check_identities", "check_leibniz",
    "construct_bilinear", "construct_system", "evaluate_product", "lift_from_leibniz",
    "IdealWitness", "SplitSystem", "check_annihilation", "compute_jideal",
    "generator_vectors", "ideal_closure", "is_ideal", "split_basis", "split_system",
    "ConnectionWitness", "MarkedIndex", "Partition", "bar", "barred", "map_a", "map_b",
    "mu", "partition", "phi", "plain", "reachable", "reverse_connection",
    "validate_witness", "Component", "DecompositionReport", "MinimalityVerdict",
    "MuViolation", "check_decomposition", "check_orthogonal", "components",
    "enumerate_inherited_ideals", "is_minimal", "minimality_oracle",
    "mu_multiplicativity_check", "content_hash", "parse_leibniz", "parse_system",
    "serialize_leibniz", "serialize_system",
]
