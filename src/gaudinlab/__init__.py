"""Workbench for the gl(2) Gaudin Bethe algebra and the scheme of
second-order operators with prescribed exponents and polynomial kernels.

Exact rational matrices carry the algebraic identities; the joint spectrum
is float in both lanes, so everything past it (scheme matching, Bethe
vectors, Grothendieck weights) runs on the instance's float twin, and the
two sides are matched point by point there.  A polynomial is its ascending
coefficients, as in the z-tables (gl2rep.ZTables), and the single-point
scheme calls are the P = 1 calls of opscheme's stacked stages.
"""

from .numcore import (
    DomainError,
    InconsistentSystemError,
    SingularMatrixError,
    Tolerances,
)
from .gl2rep import (
    NonSeparatingError,
    ProblemInstance,
    ShQuotient,
    WeightVector,
    generator_matrix,
    sh_quotient,
    shapovalov_gram,
    weight_space_dim,
)
from .gaudin import (
    GaudinSystem,
    annihilator_ideal,
    bethe_algebra_basis,
    build_gaudin,
    induced_map_kernel,
    polynomial_valued_kernel,
)
from .opscheme import (
    MalformedPairError,
    NotAdmissibleError,
    OffPlaneError,
    SchemePoint,
    a_of_h,
    exponents_at,
    h_of_a,
    operator_from_kernel_pair,
    ptilde_solve,
    residual_system,
    schubert_dimension,
    wronskian_check,
)
from .spectral import (
    ClusterAmbiguityError,
    NonSimplePointError,
    SingularJacobianError,
    SpectrumReport,
    diagonalizability_check,
    grothendieck_weights,
    joint_spectrum,
    match_spectrum_to_scheme,
)
from .sov import (
    BetheVector,
    DegenerateCoordinatesError,
    VerificationError,
    bethe_vector,
    bethe_vectors,
    change_of_variables,
    separated_form_value,
    weight_function,
)

__version__ = "0.1.0"
