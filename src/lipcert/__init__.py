"""Exact and anytime Lipschitz constants of piecewise-linear networks.

The solver computes L_{p->q}(f, Omega) = sup ||f(x) - f(y)||_q / ||x - y||_p
for feedforward networks built from affine layers and piecewise-linear
activations (ReLU-family splines, GroupSort/MaxMin/FullSort, MaxPool), over
polyhedral input regions, by best-first branch-and-bound over activation
regions. At any interruption point it holds a sound bracket [glb, gub].
"""

from .activations import (
    ComponentwiseActivation,
    GroupSortActivation,
    IdentityActivation,
    MaxPoolActivation,
    PwlActivation,
    fullsort,
    groupsort,
    leaky_relu,
    maxmin,
    prelu,
    relu,
    spline,
)
from .baselines import layerwise_bound, sampled_lower_bound, symprop_bound
from .bnb import (
    SolveResult,
    SolverConfig,
    branch,
    brute_force_oracle,
    ffilter,
    initial_subproblem,
    interval_jacobian,
    solve,
    upper_bound,
)
from .exceptions import (
    GuardrailExceededError,
    InfeasibleRegionError,
    LipcertError,
    LpSolverError,
    ModelFormatError,
    SamplingError,
    UnsupportedNormError,
)
from .intervals import IntervalMatrix, abs_upper_envelope, exact, hull, interval_matmul
from .network import AffineLayer, Network, load_model, network_from_json
from .norms import NormPair, induced_norm
from .polyhedra import (
    Polyhedron,
    affine_preimage,
    coordinate_bounds,
    is_feasible,
    linear_bounds,
    load_region,
    region_from_json,
    stack,
)
from .symprop import (
    LayerState,
    Subproblem,
    analyze_activation_layer,
    symprop,
    symprop_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AffineLayer",
    "ComponentwiseActivation",
    "GroupSortActivation",
    "GuardrailExceededError",
    "IdentityActivation",
    "InfeasibleRegionError",
    "IntervalMatrix",
    "LayerState",
    "LipcertError",
    "LpSolverError",
    "MaxPoolActivation",
    "ModelFormatError",
    "Network",
    "NormPair",
    "Polyhedron",
    "PwlActivation",
    "SamplingError",
    "SolveResult",
    "SolverConfig",
    "Subproblem",
    "UnsupportedNormError",
    "abs_upper_envelope",
    "affine_preimage",
    "analyze_activation_layer",
    "branch",
    "brute_force_oracle",
    "coordinate_bounds",
    "exact",
    "ffilter",
    "fullsort",
    "groupsort",
    "hull",
    "induced_norm",
    "initial_subproblem",
    "interval_jacobian",
    "interval_matmul",
    "is_feasible",
    "layerwise_bound",
    "leaky_relu",
    "linear_bounds",
    "load_model",
    "load_region",
    "maxmin",
    "network_from_json",
    "prelu",
    "region_from_json",
    "relu",
    "sampled_lower_bound",
    "solve",
    "spline",
    "stack",
    "symprop",
    "symprop_bound",
    "symprop_trace",
    "upper_bound",
]
