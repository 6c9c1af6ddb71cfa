"""When does an investor start to prefer the rough kernel?

For each risk aversion, finds the calendar time after which the rough
(H=0.1) strategy demands more stock than the classic (H=0.5) one.  The
const-MV crossing is exactly invariant in gamma (the whole coefficient
scales by 1/gamma); the log-MV crossing moves earlier as risk aversion
grows.

Run:  python3 demos/crossover_analysis.py
"""

from roughmv import (
    FractionalKernel,
    MarketParams,
    RateCurve,
    TimeGrid,
    const_mv_strategy,
    log_mv_strategy,
    prefer_rough_crossover,
)

HORIZON = 3.0


def market(hurst):
    return MarketParams(
        nu0=0.04, kappa=0.3, phi=0.04, sigma=0.3, rho=-0.7, theta=1.5,
        rate_curve=RateCurve.flat(0.0), kernel=FractionalKernel.from_hurst(hurst),
    )


grid = TimeGrid.for_horizon(HORIZON)
rough, smooth = market(0.1), market(0.5)

print(f"{'gamma':>8} {'t* const-MV':>14} {'t* log-MV':>12}")
for gamma in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
    t_const, t_log = (
        prefer_rough_crossover(strategy(rough, gamma, grid), strategy(smooth, gamma, grid))
        for strategy in (const_mv_strategy, log_mv_strategy)
    )
    print(f"{gamma:8.1f} {t_const:14.4f} {t_log:12.4f}")

print("\nconst-MV: one number regardless of gamma;")
print("log-MV: the more risk averse, the earlier rough is preferred.")
