"""Time-consistent equilibrium strategies under Volterra (rough) Heston volatility."""

from .kernels import (
    FractionalKernel,
    Kernel,
    KernelDomainError,
    ResolventSamples,
    SumOfExponentialsKernel,
    TimeGrid,
    integrated_resolvent_ratio_curve,
    kernel_eval,
    kernel_integral,
    mittag_leffler,
    resolvent_numeric,
)
from .volterra import (
    DivergenceError,
    LinearVieProblem,
    RiccatiCoefficients,
    riccati_bound_curve,
    solve_linear_vie,
    solve_riccati_volterra,
)
from .strategies import (
    ConstMVObjective,
    ExponentialDiscount,
    HyperbolicDiscount,
    LogMVObjective,
    MarketParams,
    NonExpLogObjective,
    RateCurve,
    StrategyCurve,
    TabulatedDiscount,
    ThetaCurve,
    admissibility_constant,
    const_mv_strategy,
    log_mv_existence_margin,
    log_mv_strategy,
    nonexp_forward_variance,
    nonexp_log_strategy,
    nonexp_v1,
    nonexp_value_coeffs,
    prefer_rough_crossover,
    strategy_to_csv,
    strategy_to_json,
)
from .montecarlo import (
    LiftedFactors,
    PathBundle,
    ResourceLimitError,
    TerminalStats,
    fit_sum_of_exponentials,
    simulate_variance,
    simulate_wealth,
    terminal_stats,
)

__version__ = "0.1.0"
