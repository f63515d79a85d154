"""qollide: thermalization of a target qubit by repeated collisions with
N-qubit bath clusters.

The package builds collective spin operators in an excitation-sorted basis,
constructs the bath families that drive thermal, displaced or squeezed
reduced dynamics, extracts the master-equation coefficients from collective
spin moments, and provides closed-form, master-equation and exact-collision
evolution engines plus scaling sweeps over the cluster size.
"""

from .baths import (
    BathSpec,
    CoherenceMap,
    bath_from_csv,
    bath_to_csv,
    classify_coherences,
    load_bath_csv,
    save_bath_csv,
    validate_bath,
)
from .collective import (
    BasisOrdering,
    CollectiveOps,
    basis_ordering,
    block_sizes,
    build_collective_ops,
    dicke_ladder_transform,
    j_z_diagonal,
)
from .dynamics import (
    LadderState,
    SweepResult,
    SweepRow,
    Trajectory,
    analytic_trajectory,
    collision_chain,
    collision_superoperator,
    dicke_max_noninverted_k,
    dicke_temperature,
    entropy,
    evolve_analytic,
    excited_state,
    fit_loglog_slope,
    ground_state,
    integrate_master,
    ladder_history,
    prepare_thermal_dicke,
    qubit_state,
    scaling_sweep,
    steady_state,
    steady_temperature,
    temperature_from_populations,
    temperature_trajectory,
    thermalization_time,
)
from .errors import NumericError, QollideError, ValidationError
from .linalg import (
    matrix_exp,
    partial_trace_bath,
    validate_density_matrix,
)
from .master_equation import (
    CollisionParams,
    MeqCoefficients,
    coefficients_for,
    coefficients_from_state,
    lindblad_rhs,
)

__version__ = "0.1.0"
