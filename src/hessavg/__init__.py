"""Hessian-averaged subsampled Newton methods with adaptive gradient sampling."""

from .averaging import (
    DiagAverageState,
    FullAverageState,
    UpdateFrequencyPolicy,
    hutchinson_diag,
)
from .harness import (
    ExperimentConfig,
    RateReport,
    RunResult,
    estimate_rates,
    run_experiment,
    run_many,
    sweep,
)
from .linalg import (
    EigDecomposition,
    NotPositiveDefiniteError,
    matrix_abs,
    pd_modify,
    spd_solve,
    sym_eig,
    weighted_norm_sq,
)
from .optimizers import (
    MethodSpec,
    RunContext,
    ScheduleSet,
    eec,
    init_state,
    run,
    schedule_eval,
    step,
)
from .problems import (
    FiniteSumOracle,
    LogisticProblem,
    ProblemConstants,
    QuadraticProblem,
    SyntheticSumProblem,
    quadratic_generate,
)
from .sampling import (
    CyclicSampler,
    GradSampleController,
    IidSampler,
    approx_norm_terms,
    exact_norm_terms,
    required_size_deterministic,
    required_size_stochastic,
)

__version__ = "0.1.0"
