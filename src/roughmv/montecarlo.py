"""Path simulation of the Volterra Heston model and terminal-wealth statistics.

The variance is the Euler step of the Volterra equation

    nu_{i+1} = nu0 + sum_{j<=i} K((i + 1 - j) h) [kappa (phi - nu_j) h
                                                 + sigma sqrt(nu_j) dB_j]

on the n-factor Markovian lift (LiftedFactors): K is a sum of exponentials
K(t) = sum_m w_m e^{-x_m t}, fitted to a singular kernel and exact (zero fit
error) for every other kernel, which is a sum of exponentials already.  One
time-major stepper (_volterra_march) runs it in blocks of steps: the shocks
from before a block enter through the factor state, which enters and is
updated by two small products per block, O(n_steps * n_factors) per path,
and each step adds the lags inside its block as a sum over the rows of the
block's shocks, which runs in row order for every path.

Negative variance is handled by full truncation: updates read the stored
max(nu, 0) and nu is stored post-truncation, so every sample is >= 0.

Reproducibility: path i draws from its own substream
SeedSequence(seed, spawn_key=(i,)), so it depends only on (seed, i), never on
which paths are simulated with it.  The four words that seed each path's
PCG64 are derived for a whole block in one array pass (_path_seed_words), bit
for bit those of NumPy's SeedSequence.  Every reduction is elementwise in the
paths: sums over time-major rows, which run in row order for every path, or
BLAS products of one fixed shape on groups of _HISTORY_GROUP paths
(_padded_groups).  (A sum along a path's own row, einsum("pm,m->p"), is
vectorised instead: on AVX-512 it rounds unlike a loop over m, if alike for
every path.)  A range of path indices can therefore be simulated
in blocks of PATH_BLOCK paths, which gives the rows of one call over the
whole range bit for bit with memory O(block x steps).  A block is
time-major from the draw to the wealth, so each step of a march reads one
contiguous row; PathBundle holds (n_paths, .) views of its arrays.  A block
holds two arrays of one element per path and node: dW1, which the wealth
march reads, and the variance, stored over the variance's own increments dB
(row i + 1 of the variance replaces row i of dB once the march has read it),
so the bundle keeps no dB.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    FractionalKernel,
    Kernel,
    SumOfExponentialsKernel,
    TimeGrid,
    _check_count,
    _check_finite,
    _exponential_terms,
    is_singular,
    kernel_eval,
)
from .strategies import (
    ConstMVObjective,
    LogMVObjective,
    MarketParams,
    NonExpLogObjective,
    ObjectiveSpec,
    StrategyCurve,
)


# Paths per block when a command streams a simulation (see cli.cmd_simulate).
PATH_BLOCK = 1024

# Array elements one block of paths may hold: block_arrays per path and node.
MAX_ELEMENTS = 150_000_000

# Paths per product of the factor state (see _padded_groups).
_HISTORY_GROUP = 32

# Steps per block of the variance march, whose earlier shocks enter through
# the factor state, and the powers of a factor's decay below which they are
# 0 (see _volterra_march).
_LIFTED_BLOCK = 8
_POWER_FLOOR = 2.0**-500

# Steps whose wealth terms that do not read the wealth are taken at once
# (see simulate_wealth); their arrays add to the block's peak memory.
_WEALTH_CHUNK = 16

# Paths _draw_increments draws path-major before one transposed copy into the
# time-major draws: a strided copy per path took a fifth of the draw stage,
# and a larger buffer is barely faster but adds to the block's peak memory.
# Also the steps per pass that mix dW1 into dB, for the same reason.
_DRAW_CHUNK = 32

# Sample points of the sum-of-exponentials fit: the rank of its design, so the
# most factors a fit can tell apart.
_FIT_POINTS = 400


class ResourceLimitError(RuntimeError):
    """Simulation would exceed the configured memory budget."""


@dataclass(frozen=True)
class LiftedFactors:
    n_factors: int = 20
    rate_spread: float = 1.0e4

    def __post_init__(self):
        _check_count(n_factors=self.n_factors)
        _check_finite(positive=True, rate_spread=self.rate_spread)


@dataclass(frozen=True)
class PathBundle:
    """Simulated paths of a block, one row per path.

    wealth and log_wealth are None until simulate_wealth fills them (log_wealth
    for log-MV and the consumption problem only): with the (n_paths, n_nodes)
    paths under keep_paths, else with the (n_paths, 1) terminal column.
    """

    grid: TimeGrid
    variance: np.ndarray           # (n_paths, n_nodes), all >= 0
    dW1: np.ndarray                # (n_paths, n_steps) stock-driving increments
    paths: range                   # global index of each row
    wealth: np.ndarray | None = None
    log_wealth: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    # no field: the variance is stored over dB; it stays an attribute while
    # perfbench/spans.py reads it
    dB = None

    @property
    def n_paths(self) -> int:
        return self.variance.shape[0]


@dataclass(frozen=True)
class TerminalStats:
    mean: float
    variance: float
    histogram: tuple[np.ndarray, np.ndarray]  # (bin_edges, counts)
    n_paths: int


# ---------------------------------------------------------------------------
# Sum-of-exponentials fit
# ---------------------------------------------------------------------------

def fit_sum_of_exponentials(
    kernel: FractionalKernel,
    n_factors: int,
    horizon: float,
    rate_spread: float = 1.0e4,
) -> tuple[SumOfExponentialsKernel, float]:
    """Least-squares sum-of-exponentials surrogate for a fractional kernel.

    Rates form a geometric ladder on [1/horizon, rate_spread/horizon]; weights
    are fitted to K at _FIT_POINTS log-spaced points of [horizon/1e4, horizon],
    and more factors than points raise RuntimeError before any work.  Returns
    the surrogate and the relative L2 error sqrt(int (K-Khat)^2 / int K^2).
    The alpha = 1 kernel is already exponential (rate 0), returned exactly.
    """
    if not isinstance(kernel, FractionalKernel):
        raise TypeError("fit_sum_of_exponentials expects a fractional kernel")
    _check_count(n_factors=n_factors)
    _check_finite(positive=True, horizon=horizon, rate_spread=rate_spread)
    if kernel.alpha == 1.0:
        return SumOfExponentialsKernel((kernel.c,), (0.0,)), 0.0
    if n_factors > _FIT_POINTS:  # refused before the design is allocated
        raise RuntimeError(f"degenerate exponential fit (rank <= {_FIT_POINTS} < {n_factors}): "
                           "try fewer factors")

    if n_factors == 1:
        rates = np.array([np.sqrt(rate_spread) / horizon])
    else:
        rates = np.geomspace(1.0 / horizon, rate_spread / horizon, n_factors)
    t_fit = np.geomspace(horizon / 1.0e4, horizon, _FIT_POINTS)
    design = np.exp(-np.outer(t_fit, rates))
    target = kernel_eval(kernel, t_fit)
    weights, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < n_factors:
        # rank 1: every rate is the same (a unit rate spread), which fewer
        # factors would not change, short of one
        hint = "the rates coincide; widen rate_spread" if rank == 1 else "try fewer factors"
        raise RuntimeError(f"degenerate exponential fit (rank {rank} < {n_factors}): {hint}")
    if np.any(weights == 0.0):
        raise RuntimeError("exponential fit produced a zero weight; try fewer factors")
    approx = SumOfExponentialsKernel(tuple(weights), tuple(rates))
    return approx, _fit_residual(kernel, approx, horizon)[0]


@functools.lru_cache(maxsize=8)
def _fit_residual(kernel: Kernel, approx: Kernel, horizon: float) -> tuple[float, float]:
    """(relative L2 error, int (K - Khat)^2 dt) by trapezoid on [horizon/1e4, horizon].

    Memoised: _as_factor_kernel reads the residual fit_sum_of_exponentials made.
    """
    t_err = np.geomspace(horizon / 1.0e4, horizon, 2000)
    target = kernel_eval(kernel, t_err)
    sq = np.trapezoid((target - kernel_eval(approx, t_err)) ** 2, t_err)
    return float(np.sqrt(sq / np.trapezoid(target**2, t_err))), float(sq)


@functools.lru_cache(maxsize=8)
def _as_factor_kernel(
    kernel: Kernel, scheme: LiftedFactors, horizon: float
) -> tuple[SumOfExponentialsKernel, float, float]:
    """(factor kernel, relative L2 fit error, int (K - Khat)^2 dt).

    Memoised: a command simulating in blocks asks for the same fit per block.
    """
    if not is_singular(kernel):
        return SumOfExponentialsKernel(*_exponential_terms(kernel)), 0.0, 0.0
    approx, rel = fit_sum_of_exponentials(
        kernel, scheme.n_factors, horizon, scheme.rate_spread
    )
    return approx, rel, _fit_residual(kernel, approx, horizon)[1]


# ---------------------------------------------------------------------------
# Variance simulation
# ---------------------------------------------------------------------------

def _path_range(paths: int | range) -> range:
    if not isinstance(paths, range):
        _check_count(paths=paths)
        return range(paths)
    if len(paths) < 1:
        raise ValueError("paths must hold at least one path")
    if min(paths) < 0:
        raise ValueError("path indices must be >= 0")
    return paths


def block_arrays(keep_paths: bool) -> int:
    """Arrays of one element per path and node that a block holds: dW1 and
    the variance, stored over dB; with keep_paths the wealth and log-wealth
    paths."""
    return 2 + 2 * keep_paths


def block_paths(grid: TimeGrid, keep_paths: bool) -> int:
    """Paths per streamed block on this grid: PATH_BLOCK, or as many as fit
    in MAX_ELEMENTS (at least one)."""
    per_path = block_arrays(keep_paths) * (grid.n_steps + 1)
    return max(1, min(PATH_BLOCK, MAX_ELEMENTS // per_path))


# NumPy's SeedSequence algorithm (numpy/random/bit_generator.pyx), which is
# fixed under NumPy's stream-compatibility policy: a pool of four uint32 words,
# hashed and mixed with these constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """(hashmix(value), next hash constant) for a uint32 array; with
    mult = _MULT_B it is one output word of generate_state.

    The hash constant is a Python int: it evolves independently of the data.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _seed_pool(seed) -> tuple[np.ndarray, int]:
    """The pool of SeedSequence(seed, spawn_key=key) before the words of a
    non-empty key are mixed in, and the hash constant they start from.

    The pool is SeedSequence(seed).pool (a key pads the seed with zero words,
    as the pool's unused words mix without one).  Its hashmixes multiplied
    the constant by _MULT_A once per pool word, per ordered pair of pool
    words, and per pool word for each seed word past the pool's four.
    """
    from numpy.random import SeedSequence

    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    words = max(1, (seed.bit_length() + 31) // 32)  # the seed's uint32 words, at least one
    calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, words - _POOL_SIZE)
    return SeedSequence(seed).pool, (_INIT_A * pow(_MULT_A, calls, 2**32)) & _MASK32


def _path_seed_words(seed, paths: range) -> np.ndarray:
    """(len(paths), 4) uint64, C order: row k equals
    SeedSequence(seed, spawn_key=(paths[k],)).generate_state(4, np.uint64).

    The seed's part of the pool is mixed once; the spawn-key words of all the
    ids are mixed as arrays.  An id below 2^32 is one key word, and larger ids
    have more: word j is mixed into the rows whose ids reach 2^(32 j).
    """
    seed_pool, hash_const = _seed_pool(seed)
    top = max(paths[0], paths[-1])  # a range is monotone
    ids = np.fromiter(paths, np.uint64 if top < 2**64 else object, len(paths))
    pool = np.repeat(seed_pool[:, None], len(paths), axis=1)
    for j in range(max(1, (top.bit_length() + 31) // 32)):
        rows = ids >= 2 ** (32 * j) if j else slice(None)  # id 0 has one word too
        word = ((ids[rows] >> (32 * j)) & _MASK32).astype(np.uint32)
        block = pool[:, rows]
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            block[dst] = _mix(block[dst], mixed)
        pool[:, rows] = block
    # generate_state(4, uint64): eight uint32 words that cycle over the pool,
    # paired little-endian into uint64
    state = np.empty((len(paths), 8), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(8):
        state[:, k], hash_const = _hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type():
    """A seed sequence that returns precomputed PCG64 seeding words.

    Made on first use: numpy.random takes 15-18 ms to import, which the
    commands that never simulate do not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words  # four C-contiguous uint64

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly this; any other request would need the
            # full SeedSequence, so it fails rather than change a stream
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"SeedWords holds 4 uint64 words, not {n_words} {np.dtype(dtype)}"
                )
            return self.words

    return SeedWords


def _draw_increments(market: MarketParams, grid: TimeGrid, paths: range, seed: int):
    """Time-major (dW1, dB), each (n_steps, n_paths); column k draws from
    SeedSequence(seed, spawn_key=(paths[k],)), the stream
    SeedSequence(seed).spawn(n)[paths[k]] gives for any n > paths[k].

    dB is rows 1.. of an (n_steps + 1, n_paths) array, dB.base, whose row 0
    is left to the caller: simulate_variance stores the variance there, each
    node over the row of dB its step has read.  dW1 is an allocation of its
    own, which the wealth march reads after the variance is done.
    """
    from numpy.random import PCG64, Generator

    seed_words = _seed_words_type()
    words = _path_seed_words(seed, paths)
    n = grid.n_steps
    dW1 = np.empty((n, len(paths)))
    dB = np.empty((n + 1, len(paths)))[1:]
    # path-major: buf[k] is one path's stream, its dW1 row then its dW2 row;
    # a chunk of paths goes into each time-major array in one transposed copy
    buf = np.empty((min(_DRAW_CHUNK, len(paths)), 2, n))
    for start in range(0, len(paths), _DRAW_CHUNK):
        chunk = buf[:len(paths) - start]
        for k, z in enumerate(chunk, start):
            Generator(PCG64(seed_words(words[k]))).standard_normal(out=z)
        cols = slice(start, start + len(chunk))
        dW1[:, cols] = chunk[:, 0].T
        dB[:, cols] = chunk[:, 1].T
    sqrt_h = np.sqrt(grid.spacing)
    rho = market.rho
    dW1 *= sqrt_h
    # dB = rho dW1 + sqrt(1 - rho^2) dW2, with every product rounded as written
    dB *= sqrt_h
    dB *= np.sqrt(1.0 - rho**2)
    for lo in range(0, n, _DRAW_CHUNK):
        dB[lo : lo + _DRAW_CHUNK] += rho * dW1[lo : lo + _DRAW_CHUNK]
    return dW1, dB


def simulate_variance(
    market: MarketParams,
    scheme: LiftedFactors,
    grid: TimeGrid,
    paths: int | range,
    seed: int,
) -> PathBundle:
    """Simulate the variance of the paths with indices `paths` (an int n means
    range(n)) on the scheme's factor kernel; the stock's increments dW1 are
    retained in the bundle so wealth can be coupled to the same shocks
    afterwards.  The variance's own increments dB are not: the variance is
    stored over them.

    Row k of the result is path paths[k], a function of (seed, paths[k]) only,
    so the rows of range(a, b) equal rows a:b of one call over range(b).
    """
    paths = _path_range(paths)
    n = grid.n_steps
    if block_arrays(False) * len(paths) * (n + 1) > MAX_ELEMENTS:
        raise ResourceLimitError(
            f"{len(paths)} paths x {n + 1} nodes exceeds the memory budget of "
            f"{MAX_ELEMENTS} array elements; simulate in smaller chunks "
            f"(block_paths gives the largest that fits)"
        )
    factors, fit_err, fit_sq = _as_factor_kernel(market.kernel, scheme, grid.t_end)

    dW1, dB = _draw_increments(market, grid, paths, seed)
    nu = dB.base  # time-major: each step writes one row, over the dB it read
    nu[0] = market.nu0
    _volterra_march(market, grid, factors, nu, dB)

    return PathBundle(
        grid=grid,
        variance=nu.T,
        dW1=dW1.T,
        metadata={"kernel_fit_l2_error": fit_err, "kernel_fit_sq_integral": fit_sq},
        paths=paths,
    )


def _volterra_march(market, grid, factors, nu, dB):
    """nu (n_nodes, n_paths) and dB (n_steps, n_paths), time-major; dB may
    be nu[1:], which the march then overwrites.

    Node i + 1 is nu0 plus the shocks of nodes 0..i summed against the factor
    kernel K(t) = sum_m w_m exp(-x_m t).  The steps run in blocks of
    b = _LIFTED_BLOCK.  The shocks from before a block live in the factor
    state U_m = sum_j shock_j q_m^(start - j), q_m = exp(-x_m h): row r of
    far = nu0 + (w q^(1..b)) @ U sums them for node start + r + 1, and after
    the block U <- U q^b + q^(b..1) @ shocks, b factors at a time through
    far's rows, so that no product needs a buffer the size of the state.
    Each step adds the lags inside its block, K(l h) for l = 1..b, as a sum
    over the rows of the block's shocks, which runs in row order for every
    path.  A block copies its rows of dB into shocks before any of its steps
    writes a node, and step i writes only node i + 1, which is dB's row i:
    a row of dB is read before it is written over.

    Powers below _POWER_FLOOR are 0: their products with the state, which
    carries one more power of q and a shock, would be subnormal, which is
    slow, and the terms they drop are below 1e-150 of nu.
    """
    n, b, h = grid.n_steps, _LIFTED_BLOCK, grid.spacing
    kap_h, phi, sig = market.kappa * h, market.phi, market.sigma
    n_paths = nu.shape[1]
    w = np.asarray(factors.weights)
    kern_lag = kernel_eval(factors, h * np.arange(1, b + 1))
    powers = np.exp(-np.outer(h * np.arange(1, b + 1), factors.rates))
    powers[powers < _POWER_FLOOR] = 0.0
    far_weights = powers * w       # [r, m] = w_m q_m^(r + 1)
    decay = powers[-1][:, None]    # q^b per factor
    push = powers[::-1].T.copy()   # [m, r] = q_m^(b - r)
    # the columns past n_paths of the shocks and the state stay 0
    shocks, shock_groups = _padded_groups(b, n_paths)
    far, far_groups = _padded_groups(b, n_paths)
    state, state_groups = _padded_groups(len(w), n_paths)
    for start in range(0, n, b):
        if start:  # the previous block's shocks join the state
            state *= decay
            for m in range(0, len(w), b):
                k = len(push[m : m + b])
                np.matmul(push[m : m + b], shock_groups, out=far_groups[:, :k])
                state[m : m + k] += far[:k]
        np.matmul(far_weights, state_groups, out=far_groups)
        far += market.nu0
        steps = range(start, min(start + b, n))
        block = shocks[: len(steps), :n_paths]
        # a row holds its step's noise until the step writes its shock there
        np.multiply(sig, dB[steps.start : steps.stop], out=block)
        for r, i in enumerate(steps):
            root = np.sqrt(nu[i])
            root *= block[r]
            dz = np.subtract(phi, nu[i], out=block[r])
            dz *= kap_h
            dz += root
            near = np.einsum("jp,j->p", block[: r + 1], kern_lag[r::-1])
            near += far[r, :n_paths]
            np.maximum(near, 0.0, out=nu[i + 1])


def _padded_groups(rows, n_paths):
    """(rows, n_paths rounded up to _HISTORY_GROUP) zeros, and its
    (groups, rows, _HISTORY_GROUP) view.  A matrix product per group has the
    same shape whatever the number of paths, so a path's row does not depend
    on the others (matmul takes other BLAS kernels for fewer columns, gemv for
    one, which round differently)."""
    padded = np.zeros((rows, -(-n_paths // _HISTORY_GROUP) * _HISTORY_GROUP))
    return padded, padded.reshape(rows, -1, _HISTORY_GROUP).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Wealth simulation
# ---------------------------------------------------------------------------

def simulate_wealth(
    bundle: PathBundle,
    market: MarketParams,
    strategy: StrategyCurve,
    objective: ObjectiveSpec,
    x0: float,
    keep_paths: bool = True,
) -> PathBundle:
    """Euler wealth paths driven by the bundle's retained dW1 increments.

    const-MV integrates the wealth SDE directly with control
    u_t = total(t) sqrt(nu_t).  log-MV and the consumption problem integrate
    log-wealth with proportion pi_t = total(t), times nu^((delta-1)/(2 delta))
    for log-MV when delta != 1.  Log-wealth then has diffusion
    pi sqrt(nu) dW1 and drift r - c + (theta pi - pi^2/2) nu, with c the
    curve's consumption rate for the consumption problem and 0 otherwise;
    the consumption problem's total(t) is the Merton fraction theta of
    nonexp_log_strategy, and its curve must carry the consumption rate.
    The march runs over the bundle's time-major arrays: per chunk of
    _WEALTH_CHUNK steps it takes the terms that read only nu, pi and dW1 at
    once, then steps the wealth through the chunk row by row, associated as
    (w + drift h) + pi sqrt(nu) dW1.  With keep_paths the bundle's wealth
    (and log_wealth) are the (n_paths, n_nodes) paths; without it the march
    steps one row in place and returns the (n_paths, 1) terminal column, bit
    for bit the last column of the full paths.
    """
    _check_finite(positive=True, x0=x0)
    nodes = bundle.grid.nodes()
    if strategy.grid.n_steps != bundle.grid.n_steps or not np.allclose(
        strategy.grid.nodes(), nodes, rtol=0, atol=1e-12
    ):
        raise ValueError("strategy grid does not match the simulation grid")
    h = bundle.grid.spacing
    n = bundle.grid.n_steps
    nu = bundle.variance.T
    dW1 = bundle.dW1.T
    coef = strategy.total
    rates = market.rate_curve.values_at(nodes)
    th = market.theta
    if isinstance(objective, ConstMVObjective):
        expo = 0.0
    elif isinstance(objective, LogMVObjective):
        # pi sqrt(nu) ~ nu^((2 delta - 1)/(2 delta)) and pi^2 nu diverge at the
        # truncated nu = 0 for delta < 1/2; at delta = 1/2 they tend to total
        # and total^2 as nu -> 0, but the march would take 0 for both there
        if not objective.delta > 0.5:
            raise ValueError(f"log-MV wealth needs delta > 1/2, got {objective.delta!r}")
        expo = (objective.delta - 1.0) / (2.0 * objective.delta)
    elif isinstance(objective, NonExpLogObjective):
        if strategy.consumption is None:
            raise ValueError("the consumption problem needs a curve with a consumption rate")
        expo = 0.0
        rates = rates - strategy.consumption
    else:
        raise TypeError(f"unknown objective {type(objective).__name__}")
    log = not isinstance(objective, ConstMVObjective)
    # wealth or log-wealth; node i lives in row i % rows: every node, or one
    # row stepped in place
    rows = n + 1 if keep_paths else 1
    x = np.empty((rows, nu.shape[1]))
    x[0] = np.log(x0) if log else x0
    for lo in range(0, n, _WEALTH_CHUNK):
        chunk = slice(lo, min(lo + _WEALTH_CHUNK, n))
        nu_c, pi = nu[chunk], coef[chunk, None]
        if expo != 0.0:
            pi = pi * np.maximum(nu_c, 1e-300) ** expo
        # theta nu pi, and for log-wealth its whole drift term
        # (r + theta nu pi - (pi^2 / 2) nu) h, associated as written;
        # pi * pi: a numpy scalar's pi**2 is pow(), which may round unlike x * x
        drift = th * nu_c
        drift *= pi
        noise = None
        if log:
            np.add(rates[chunk, None], drift, out=drift)
            noise = np.multiply(0.5 * (pi * pi), nu_c)
            drift -= noise
            drift *= h
        noise = np.sqrt(nu_c, out=noise)  # pi sqrt(nu) dW1
        np.multiply(pi, noise, out=noise)
        noise *= dW1[chunk]
        for r, i in enumerate(range(chunk.start, chunk.stop)):
            now, nxt = x[i % rows], x[(i + 1) % rows]
            if log:
                np.add(now, drift[r], out=nxt)
            else:  # (r w + theta nu pi) h
                step = rates[i] * now
                step += drift[r]
                step *= h
                np.add(now, step, out=nxt)
            nxt += noise[r]
    if log:
        return dataclasses.replace(bundle, log_wealth=x.T, wealth=np.exp(x).T)
    return dataclasses.replace(bundle, wealth=x.T)


# ---------------------------------------------------------------------------
# Statistics and exports
# ---------------------------------------------------------------------------

def terminal_stats(terminal: np.ndarray, n_bins: int = 50) -> TerminalStats:
    """Mean, unbiased variance and histogram of the terminal wealth vector
    (for a bundle, bundle.wealth[:, -1])."""
    _check_count(n_bins=n_bins)
    x = np.asarray(terminal, dtype=float)
    if x.size < 2:
        raise ValueError("sample variance undefined for fewer than 2 paths")
    lo, hi = x.min(), x.max()
    try:
        edges = np.histogram_bin_edges(x, bins=n_bins, range=(lo, hi))
    except ValueError as exc:  # a non-finite range, or one too narrow for its magnitude
        raise ValueError(
            f"cannot bin the terminal wealth range [{lo:.17g}, {hi:.17g}] "
            f"into {n_bins} bins: {exc}"
        ) from None
    counts, edges = np.histogram(x, bins=edges)
    return TerminalStats(
        mean=float(np.mean(x)),
        variance=float(np.var(x, ddof=1)),
        histogram=(edges, counts),
        n_paths=int(x.size),
    )


PATHS_CSV_HEADER = "path_id,t,nu,wealth\n"


def bundle_csv_rows(bundle: PathBundle) -> Iterator[str]:
    """The rows of the bundle's paths in paths.csv, one string per path.

    Each row is path_id,t,nu,wealth with every float as its repr (wealth
    empty when the bundle has none), with the path's global index as path_id.
    A bundle whose wealth is the terminal column only raises ValueError.
    """
    has_wealth = bundle.wealth is not None
    if has_wealth and bundle.wealth.shape != bundle.variance.shape:
        raise ValueError(
            "the bundle holds terminal wealth only; simulate_wealth with "
            "keep_paths=True keeps the paths that paths.csv needs"
        )
    cell = ",%r,%r\n" if has_wealth else ",%r,\n"
    # one template per path: the node times are formatted once
    template = "".join(f"%d,{t!r}{cell}" for t in bundle.grid.nodes().tolist())
    columns = [bundle.variance, bundle.wealth] if has_wealth else [bundle.variance]
    cells = np.empty((bundle.variance.shape[1], 1 + len(columns)))  # one path's rows
    for k, path_id in enumerate(bundle.paths):
        cells[:, 0] = path_id
        for j, col in enumerate(columns, start=1):
            cells[:, j] = col[k]
        yield template % tuple(cells.ravel().tolist())
