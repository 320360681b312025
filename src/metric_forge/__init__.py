"""Complete metric families for one-coupling tridiagonal chains.

The package constructs, for every even size n and coupling lam in
(-1, 1), the full n-parameter family of symmetric positive metric
candidates of the non-symmetric chain Hamiltonian: once by an exact
brute-force kernel solve of the quasi-Hermiticity constraint, and once by
the recurrent closed-form basis construction.  The two routes are
cross-validated exactly, and spectral, positivity and continuum-limit
properties are checked numerically.
"""

from .analysis import (
    BiorthogonalSystem,
    PositivityReport,
    RegionSample,
    SampleRecord,
    biorthogonal_system,
    closed_form_margin,
    eigs_symmetric,
    positivity,
    positivity_closed_form,
    sample_positivity_region,
    theta_from_weights,
    weights_from_theta,
)
from .closedform import (
    IncidenceMatrix,
    MetricBasisElement,
    assemble_theta,
    basis_element,
    basis_family,
    entry_polynomial,
    evaluate_basis_stack,
    incidence_family,
    intertwining_defect,
    occupancy_matrix,
    occupancy_positions,
    reflection_symmetry_holds,
    triangle_entry,
)
from .continuum import (
    FreeMetricParams,
    LatticeGrid,
    MatchingData,
    WallReport,
    fit_loglog_slope,
    free_lattice_metric,
    matching_data,
    matching_residual,
    opaque_wall_check,
)
from .errors import (
    ConstructionError,
    DegenerateSpectrumError,
    DimensionError,
    DomainError,
)
from .exact import (
    IntPolynomial,
    KernelBasis,
    Matrix,
    null_space,
    rank,
)
from .hamiltonian import (
    HamiltonianSpec,
    SpectrumReport,
    build_hamiltonian,
    closed_form_spectrum,
    eigs_general,
    hamiltonian_polynomial,
    reality_scan,
    symmetric_similarity,
)
from .oracle import (
    MembershipResult,
    MetricSolutionSpace,
    SymmetricIndexer,
    intertwining_system,
    solve_metric_space,
    upper_triangle_vector,
    verify_membership,
)

__version__ = "0.1.0"
