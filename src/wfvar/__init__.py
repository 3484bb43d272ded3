"""Variational toolkit for delayed two-body electrodynamics.

Evaluates the delayed interaction action of two point charges over
piecewise-smooth trajectories, checks the momentum and energy currents that
tie velocity jumps to minimality, builds far fields and their
vanishing-radiation residual, constructs short-range partner orbits, and
minimizes the discretized action over trajectories with breaking points.
All quantities use natural units with c = 1.
"""

from .action import (
    action,
    el_residual,
    frechet_directional,
    pullback_mesh,
)
from .cli import emit_report, load_scenario, main, run
from .core import (
    BoundaryData,
    ParticleParams,
    Perturbation,
    PiecewiseTrajectory,
    Segment,
    Side,
    Vec3,
    add_perturbation,
    hermite_trajectory,
    load_trajectory,
    polygonal_from_vertices,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
    vec3,
)
from .errors import (
    CollisionError,
    ConeSolveError,
    ConfigError,
    ContractError,
    ConvergenceError,
    CoverageError,
    DomainError,
    InconsistentParamsError,
    InfeasibleJumpError,
    InsufficientHistoryError,
    InsufficientSamplingError,
    SuperluminalError,
    WfvarError,
)
from .farfield import (
    FarFieldSample,
    SphereMesh,
    b_via_second_derivative,
    field_map,
    gah_residual,
    gah_residuals,
    latlong_mesh,
    lw_far,
    poynting_flux,
    sphere_flux,
    wf_far,
    write_field_csv,
)
from .lightcone import (
    Branch,
    ConeSolution,
    cone_time,
    far_cone_time,
    far_cone_times,
    influence_interval,
)
from .momentum import (
    BreakResidual,
    break_residual,
    break_residuals,
    energy_current,
    momentum_current,
    post_jump_velocity,
)
from .optimizer import (
    DecisionVector,
    MinimizeOptions,
    MinimizerReport,
    ParticleLayout,
    decode,
    discretize,
    minimize,
    verify,
)
from .shortrange import (
    ConsistencyReport,
    RigidityReport,
    SeparationFamilyParams,
    SewingChain,
    construct_partner,
    enforce_continuity,
    k12,
    load_family,
    params_from_dict,
    params_to_dict,
    rigidity_check,
    save_family,
    separation_family,
    sewing_chain,
)

__version__ = "0.1.0"
