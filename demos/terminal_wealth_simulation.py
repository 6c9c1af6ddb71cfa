"""Terminal wealth of a rough vs a classic Heston investor, same parameters.

Simulates the variance with the lifted (multi-factor) scheme, couples the
const-MV wealth to the same Brownian shocks, and compares terminal-wealth
statistics.  The shared parameter set starts the variance above its long-run
mean with positive spot-vol correlation; see configs/simulation_comparison.json
for why those two choices drive the rough-dominates ordering.

Run:  python3 demos/terminal_wealth_simulation.py  (about 10 seconds)
"""

import dataclasses

from roughmv import (
    ConstMVObjective,
    FractionalKernel,
    LiftedFactors,
    MarketParams,
    RateCurve,
    TimeGrid,
    const_mv_strategy,
    simulate_variance,
    simulate_wealth,
    terminal_stats,
)

HORIZON, GAMMA, N_PATHS, SEED = 10.0, 0.5, 2000, 20240601

base = MarketParams(
    nu0=0.09, kappa=1.0, phi=0.04, sigma=0.3, rho=0.7, theta=1.5,
    rate_curve=RateCurve.flat(0.01), kernel=FractionalKernel.from_hurst(0.1),
)
grid = TimeGrid.for_horizon(HORIZON)
objective = ConstMVObjective(GAMMA, HORIZON)

print(f"{N_PATHS} paths, {grid.n_steps} steps, x0 = 1, lifted scheme with 20 factors\n")
for hurst in (0.1, 0.5):
    market = dataclasses.replace(base, kernel=FractionalKernel.from_hurst(hurst))
    strategy = const_mv_strategy(market, GAMMA, grid)
    bundle = simulate_variance(market, LiftedFactors(20), grid, N_PATHS, SEED)
    bundle = simulate_wealth(bundle, market, strategy, objective, 1.0)
    stats = terminal_stats(bundle.wealth[:, -1])
    fit = bundle.metadata.get("kernel_fit_l2_error", 0.0)
    label = "rough  " if hurst == 0.1 else "classic"
    print(
        f"H = {hurst}  ({label}): terminal mean {stats.mean:.4f}, "
        f"variance {stats.variance:.4f}, kernel fit L2 error {fit:.2e}"
    )

print("\nThe rough investor ends richer on average and bears more variance.")
