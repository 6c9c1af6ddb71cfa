"""Consumption under hyperbolic discounting is blind to roughness.

With log utility, the equilibrium consumption rate is 1/V1(t) and the
investment coefficient is the risk-premium slope theta, whatever the
variance kernel.  The script prints the plan and double-checks that two
very different kernels produce bit-identical curves.

Run:  python3 demos/consumption_plan.py
"""

import numpy as np

from roughmv import (
    FractionalKernel,
    HyperbolicDiscount,
    MarketParams,
    RateCurve,
    TimeGrid,
    nonexp_log_strategy,
)

HORIZON = 3.0
discount = HyperbolicDiscount(a=0.5, b=0.8)


def market(hurst):
    return MarketParams(
        nu0=0.04, kappa=0.3, phi=0.04, sigma=0.3, rho=-0.7, theta=1.5,
        rate_curve=RateCurve.flat(0.01), kernel=FractionalKernel.from_hurst(hurst),
    )


grid = TimeGrid.for_horizon(HORIZON)
rough = nonexp_log_strategy(market(0.1), discount, grid)
classic = nonexp_log_strategy(market(0.5), discount, grid)
p_rough, coef_rough = rough.consumption, rough.total
p_classic, coef_classic = classic.consumption, classic.total

print("hyperbolic discount h(s) = (1 + 0.5 s)^(-1.6), T = 3\n")
print(f"{'t':>5} {'consumption rate':>18} {'investment coef':>17}")
for t_probe in (0.0, 1.0, 2.0, 3.0):
    i = int(np.searchsorted(grid.nodes(), t_probe))
    print(f"{grid.nodes()[i]:5.1f} {p_rough[i]:18.5f} {coef_rough[i]:17.2f}")

same = np.array_equal(p_rough, p_classic) and np.array_equal(coef_rough, coef_classic)
print(f"\nH = 0.1 and H = 0.5 plans bitwise identical: {same}")
