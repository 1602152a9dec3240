"""Fairness-aware federated aggregation.

The server treats its per-round choice of client mixing coefficients as an
online convex optimization over the probability simplex: client losses become
bounded responses, responses define a negative-log-growth decision loss, and
two adaptive optimizers (a quadratic-surrogate method for the few-client
regime and a closed-form multiplicative method for the sampled-population
regime) drive the mixing weights.  A deterministic simulator, five classical
baselines, fairness metrics, and regret diagnostics round out the package.
"""

from .aggregator import (
    AggregatorMethod,
    FtrlState,
    MethodKind,
    OnsState,
    aaggff_d_step,
    aaggff_s_step,
    baseline_coefficients,
    eg_unified_step,
    ftrl_init,
    normalize_selected,
    ons_init,
    optimizer_init,
)
from .decision import (
    LipschitzConstants,
    decision_grad,
    decision_loss,
    dr_response,
    linearized_grad,
    lipschitz_constants,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    FairaggError,
    InvalidDimensionError,
    NonConvergenceError,
    NumericalFailureError,
)
from .fedsim import (
    RoundReport,
    ServerOptKind,
    ServerOptimizer,
    SimulationState,
    client_update,
    run_round,
    sample_clients,
    server_apply,
)
from .metrics import PerformanceSummary, cumulative_regret, performance_summary
from .modeldata import (
    Dataset,
    ModelKind,
    ModelSpec,
    PartitionScheme,
    PartitionSpec,
    loss_and_grad,
    make_synthetic,
    partition,
)
from .response import (
    CdfFamily,
    CdfKind,
    ResponseBounds,
    cdf_eval,
    transform_losses,
)
from .simplex import (
    minimize_over_simplex,
    project_generalized,
    project_to_simplex,
    uniform_decision,
)

__version__ = "0.1.0"
