"""finalg: exact structure-constant analysis of finite-dimensional
associative algebras over the rationals.

The toolkit decides commutator-simplicity, computes radicals and trace
functionals, solves for derivation-type map spaces, and verifies the
criteria that force such maps to be derivations or Jordan homomorphisms.
All arithmetic is exact (`fractions.Fraction`); every randomized check
takes an explicit seed.
"""

from .version import __version__
from .linalg import (
    InternalError,
    Mat,
    Subspace,
    as_vector,
    dot,
    kernel_from_constraints,
    parse_rational,
)
from .algebras import (
    AssociativityError,
    Element,
    FinAlgebra,
    FiniteGroup,
    adjoin_unit,
    build_group_algebra,
    build_matrix_algebra,
    build_upper_triangular,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    quotient_algebra,
    random_element,
    symmetric_group,
    tensor_product,
)
from .structure import (
    IdealWitness,
    SimplicityVerdict,
    TraceFunctional,
    TraceSearchResult,
    commutator_subspace,
    gram_matrix,
    has_nondegenerate_trace,
    ideal_closure,
    is_commutator_simple,
    is_nondegenerate_trace,
    is_semiprime,
    largest_ideal_within,
    product_span,
    radical,
    trace_functional_space,
)
from .maps import (
    CheckResult,
    InnerAutoSample,
    LocalDerivationResult,
    MapSpace,
    SimilaritySearch,
    TheoremCheck,
    VerificationReport,
    apply_map,
    cubic_condition_check,
    derivation_criterion_space,
    derivation_space,
    flatten_map,
    inner_derivation_space,
    inner_similarity_witness,
    jordan_derivation_space,
    jordan_homomorphism_check,
    local_derivation_test,
    local_inner_automorphism_test,
    map_from_basis_images,
    multiplicativity_check,
    scaled_identity_map,
    transpose_map,
    verify_derivation_criterion,
    verify_jordan_criterion,
)
from .document import (
    AlgebraDocument,
    DocumentError,
    document_fingerprint,
    document_from_algebra,
    format_cayley_table,
    format_map_file,
    parse_algebra_document,
    parse_cayley_table,
    parse_document,
    parse_map_file,
    serialize_document,
)
from .report import Report, Section, emit_report
