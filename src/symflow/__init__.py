"""symflow: measure-preserving symmetry and reversibility analysis for
smooth vector fields.

The library detects and refutes candidate involutions of differential
systems through the transformation law of the divergence and its
derivatives along the flow, and classifies two planar families
(predator-prey and damped oscillator) in closed form.
"""

# read by report.py, so it is set before the submodules are imported
__version__ = "0.1.0"

from .candidates import (
    CandidatePointMap,
    Classification,
    ClassificationBranch,
    ConditionReport,
    DeltaRoot,
    SingularDeltaError,
    candidate_from_delta,
    candidate_map_table,
    candidate_table_to_csv,
    classify_lienard,
    classify_lotka_volterra,
    fit_affine_candidate,
    lienard_field,
    lotka_volterra_field,
)
from .checks import (
    check_delta_noninvertibility,
    check_fixed_points_even_orders,
    check_level_set_invariance,
    check_structural,
    check_tower_transform,
    fixed_points,
    tower_order_verdicts,
)
from .expr import (
    Binary,
    Const,
    EvaluationError,
    ExprError,
    Expression,
    Unary,
    Var,
    compose,
    differentiate,
    evaluate,
    evaluate_exact,
    identically_zero,
    is_polynomial,
    simplify,
    to_string,
)
from .fields import (
    JacobianMatrix,
    SmoothMap,
    VectorField,
    divergence,
    find_critical_points,
    identity_map,
    is_involution,
    is_measure_preserving,
    jacobian,
    lie_derivative,
)
from .flow import (
    IntegratorConfig,
    Trajectory,
    check_flow_relation,
    check_liouville,
    integrate,
    trajectory_to_csv,
)
from .geometry import DomainBox, Point
from .parser import ParseError, parse
from .tower import (
    DeltaMap,
    DivergenceTower,
    Selection,
    SignMatrix,
    TowerBudgetError,
    TrajectoryEscape,
    build_tower,
    default_selection,
    delta_map,
    sign_matrix,
    tower_fd_oracle,
)
from .verdict import Certainty, CheckKind, Status, Verdict
