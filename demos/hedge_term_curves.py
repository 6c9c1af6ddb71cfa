"""How roughness reshapes the mean-variance hedge.

Computes the equilibrium dollar-amount coefficient for three Hurst levels on
a three-year horizon and prints the hedge term at a few dates.  Far from
maturity the smoother kernels carry the bigger hedge; close to maturity the
rough kernel takes over -- the investment horizon effect.

Run:  python3 demos/hedge_term_curves.py
"""

import numpy as np

from roughmv import (
    FractionalKernel,
    MarketParams,
    RateCurve,
    TimeGrid,
    const_mv_strategy,
)

HORIZON = 3.0
GAMMA = 0.5

market_base = dict(
    nu0=0.04, kappa=0.3, phi=0.04, sigma=0.3, rho=-0.7, theta=1.5,
    rate_curve=RateCurve.flat(0.0),
)

grid = TimeGrid.for_horizon(HORIZON)
curves = {}
for hurst in (0.1, 0.3, 0.5):
    market = MarketParams(**market_base, kernel=FractionalKernel.from_hurst(hurst))
    curves[hurst] = const_mv_strategy(market, GAMMA, grid)

print(f"const-MV hedge term, T = {HORIZON}, gamma = {GAMMA} (myopic = theta/gamma = 3 at t = T)")
print(f"{'t':>6} " + " ".join(f"H={h:<10}" for h in curves))
for t_probe in (0.0, 1.0, 2.0, 2.9):
    i = int(np.searchsorted(grid.nodes(), t_probe))
    row = " ".join(f"{curves[h].hedge[i]:<12.5f}" for h in curves)
    print(f"{grid.nodes()[i]:6.2f} {row}")

t_cross = None
diff = curves[0.1].total - curves[0.5].total
flips = np.nonzero(diff[:-1] * diff[1:] < 0)[0]
if flips.size:
    t_cross = grid.nodes()[flips[-1]]
print(f"\nrough (H=0.1) overtakes classic (H=0.5) around t = {t_cross:.2f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    for h, curve in curves.items():
        axes[0].plot(grid.nodes(), curve.hedge, label=f"H={h}")
        axes[1].plot(grid.nodes(), curve.total, label=f"H={h}")
    axes[0].set_title("hedge term")
    axes[1].set_title("dollar-amount coefficient")
    for ax in axes:
        ax.set_xlabel("t")
        ax.legend()
    fig.tight_layout()
    fig.savefig("hedge_term_curves.png", dpi=120)
    print("wrote hedge_term_curves.png")
except ImportError:
    pass
