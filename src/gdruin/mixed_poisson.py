"""Ruin probability approximations for mixed Poisson claims.

A mixed Poisson claim law with mixing distribution F on the positive axis is
the n -> infinity limit of NBM claims built from the grid weights
q(k, n) = F(k/n) - F((k-1)/n) with p_n = n/(n+1).  Two approximations follow:

* method 1 evaluates the coefficient series directly,
      psi(u) ~= sum_k Cbar_{k,n} nb(u, 1/(1+n))(k),
  truncated by the pmf-floor rule: the grid approximation is the NBM series
  at p_n, so it sums over the window of `nbm.psi_nbm`, from k = 0 to k_hi,
  the last index whose NegBin(u, 1/(1+n)) mass exceeds the floor, found by
  probing up from the mode (u-1)n in steps of one standard deviation.
* method 2 replaces the series by a Monte Carlo average of Cbar at NegBin
  draws, with a sample standard error.

The coefficients use the limiting substitution Cbar_{0,n} = E(Lambda); the
raw grid sum survives only inside the equilibrium-weight normalization,
taken once per law.  They come from the renewal solver in `renewal`, whose
table per (mixing law, n) is extended in place as u grows, so sweeping u is
cheap after the first call.  The grid is the paper's infinite sum over
every j >= 0.  A law whose survival drops below 1e-16 within the first 2^16
points stops there, and its survival is evaluated only up to the doubling
piece that reaches the stop; any other keeps those points and reads values
past them on demand, with the tail sums past them in closed form
(`MixingDistribution.grid_tail`), so no law is too heavy-tailed to grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DiscretePmf, MixingDistribution, _whole_number, mp_claims_pmf
from .nbm import _series_window
from .recursion import psi_recursion
from .renewal import RenewalSolver, TableCache, Weights

__all__ = [
    "MpApproxConfig",
    "MpCoefficientSeq",
    "mp_coefficients",
    "psi_mp_method1",
    "psi_mp_method2",
    "psi_mp_exact_reference",
]

# The mixing grid stops below a survival of _GRID_TOL if it gets there
# within its first _HEAD points, which every law stores.  The head is
# evaluated in doubling pieces from _PIECE points, up to the first piece
# that reaches the stop.
_GRID_TOL = 1e-16
_HEAD = 1 << 16
_PIECE = 1 << 10


@dataclass(frozen=True)
class MpApproxConfig:
    """Grid and sampling parameters for the two approximation methods.

    ``n`` is the grid refinement, ``m`` the Monte Carlo sample size of
    method 2, ``pmf_floor`` the series truncation floor, and ``seed`` makes
    method 2 reproducible.  The mixing grid has no cap: it stops at a
    survival of 1e-16 within its first 2^16 points, or else runs on to
    infinity, past those points in closed form.
    """

    n: int = 500
    m: int = 1000
    pmf_floor: float = 1e-5
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _whole_number(self.n, "n", least=1))
        object.__setattr__(self, "m", _whole_number(self.m, "m", least=1))
        if not self.pmf_floor > 0.0:
            raise ValueError("pmf_floor must be positive")


@dataclass(frozen=True, eq=False)
class MpCoefficientSeq:
    """Grid coefficients for one mixing law at one refinement.

    ``cbar_n[k]`` is Cbar_{k,n}, a read-only view of the law's renewal
    table; ``grid_sum`` is the raw survival sum sum_j Fbar(j/n) over the
    whole grid, and ``grid_points`` the number of grid values the law
    stores: J for a grid that stops at J points, else 2^16.  The grid
    equilibrium weights f_Ne(i) = Fbar((i-1)/n) / grid_sum and their tails
    are ``renewal.lags`` and ``renewal.survival``.
    """

    cbar_n: np.ndarray
    grid_sum: float
    grid_points: int
    renewal: RenewalSolver = field(repr=False)


# -- the mixing grid -------------------------------------------------------------

_coeff_cache = TableCache()


class _Grid(Weights):
    """Fbar(j/n) for every j >= 0, its first values stored, as solver weights.

    A value past the stored head is evaluated when read, and the tail sum
    from a block boundary past it is `MixingDistribution.grid_tail`, so the
    grid is the whole infinite sum at the memory cost of its head.
    """

    def __init__(self, mix: MixingDistribution, n: int, head: np.ndarray):
        super().__init__(head, beyond=mix.grid_tail(head.size, n))
        self.size = math.inf
        self._mix, self._n, self._head = mix, n, head.size

    def read(self, lo: int, hi: int) -> np.ndarray:
        if hi <= self._head:
            return super().read(lo, hi)
        far = self._mix.sf(np.arange(max(lo, self._head), hi, dtype=float) / self._n)
        return np.concatenate((super().read(lo, self._head), far))

    def tail(self, l: int) -> np.longdouble:
        if l <= self._head:
            return super().tail(l)
        return np.longdouble(self._mix.grid_tail(l, self._n))


def _table(mix: MixingDistribution, n: int):
    """Renewal solver for the law's grid coefficients, and the wrapper of its views.

    The solver takes the raw grid and normalizes it by its sum once, in
    extended precision: the coefficient identity is checked downstream to
    1e-12 and double accumulation over ~1e5 grid points would eat most of
    that budget.
    """
    elam = mix.mean
    if not 0.0 < elam < 1.0:
        raise ValueError(f"net profit condition requires E(Lambda) < 1, got {elam}")
    pieces, lo = [], 0
    while lo < _HEAD:
        hi = max(2 * lo, _PIECE)
        pieces.append(np.asarray(mix.sf(np.arange(lo, hi, dtype=float) / n), dtype=float))
        lo = hi
        if pieces[-1].min() < _GRID_TOL:
            break
    head = np.concatenate(pieces)
    below = np.flatnonzero(head < _GRID_TOL)
    if not below.size:
        grid = _Grid(mix, n, head)
    elif below[0]:
        grid = Weights(head[: below[0]].copy())  # no view pinning the whole head
    else:
        raise ValueError("mixing law has no mass above 0")
    solver = RenewalSolver(elam, grid)
    points = min(grid.size, _HEAD)

    def wrap(cbar: np.ndarray) -> MpCoefficientSeq:
        return MpCoefficientSeq(
            cbar_n=cbar, grid_sum=solver.total, grid_points=points, renewal=solver
        )

    return solver, wrap


def mp_coefficients(
    mix: MixingDistribution, cfg: MpApproxConfig, k_max: int
) -> MpCoefficientSeq:
    """Coefficients Cbar_{0..k_max, n}, memoized and extended in place.

    The table of each (mixing law, n) grows in quarter octaves, to at most
    1.25 (k_max + 1) terms and at least 64; a request within it is a cached
    read that no other law's extension blocks.  The cache keeps the 8 most
    recently requested tables (`renewal.TableCache`).
    """
    k_max = _whole_number(k_max, "k_max")
    return _coeff_cache.get((mix, cfg.n), k_max, lambda: _table(mix, cfg.n))


# -- method 1: truncated series ----------------------------------------------


def psi_mp_method1(mix: MixingDistribution, u: int, cfg: MpApproxConfig) -> float:
    """Truncated coefficient series at surplus u."""
    u = _whole_number(u, "u")
    elam = mix.mean
    if not 0.0 < elam < 1.0:
        raise ValueError(f"net profit condition requires E(Lambda) < 1, got {elam}")
    if u == 0:
        return elam
    pmf = _series_window(u, 1.0 / (1.0 + cfg.n), cfg.pmf_floor)
    if not pmf.size:
        raise ValueError(
            f"every NegBin({u}, 1/{cfg.n + 1}) mass is below pmf_floor={cfg.pmf_floor}; "
            "lower the floor or the grid refinement"
        )
    seq = mp_coefficients(mix, cfg, pmf.size - 1)
    return float(np.dot(seq.cbar_n[: pmf.size], pmf))


# -- method 2: Monte Carlo over the mixing index ------------------------------


def _negbin_draws(u: int, n: int, m: int, seed, rng_stream: int) -> np.ndarray:
    """m draws of NegBin(u, 1/(1+n)) as sums of u inverse-cdf geometric draws.

    The explicit inverse transform keeps output identical across generator
    library versions; the stream is keyed by (seed, stream index).
    """
    if seed is None:
        ss = np.random.SeedSequence()
    else:
        ss = np.random.SeedSequence((int(seed), rng_stream))
    rng = np.random.Generator(np.random.Philox(ss))
    lq = math.log1p(-1.0 / (1.0 + n))  # log of the geometric miss probability
    # integer-valued sums below 2^53, so exact in float64 in any order
    total = np.zeros(m)
    # draw in column blocks so u in the hundreds stays memory-friendly
    step = max(1, (1 << 22) // max(m, 1))
    done = 0
    while done < u:
        cols = min(step, u - done)
        unif = rng.random((m, cols))
        np.negative(unif, out=unif)
        np.log1p(unif, out=unif)
        np.divide(unif, lq, out=unif)
        np.floor(unif, out=unif)
        total += unif.sum(axis=1)
        done += cols
    return total.astype(np.int64)


def psi_mp_method2(
    mix: MixingDistribution, u: int, cfg: MpApproxConfig
) -> tuple[float, float]:
    """Monte Carlo estimate of the series and its sample standard error."""
    u = _whole_number(u, "u")
    elam = mix.mean
    if not 0.0 < elam < 1.0:
        raise ValueError(f"net profit condition requires E(Lambda) < 1, got {elam}")
    if u == 0:
        return elam, 0.0
    z = _negbin_draws(u, cfg.n, cfg.m, cfg.seed, rng_stream=u)
    seq = mp_coefficients(mix, cfg, int(z.max()))
    vals = seq.cbar_n[z]
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(cfg.m)) if cfg.m > 1 else math.inf
    return est, se


# -- exact reference -----------------------------------------------------------


def psi_mp_exact_reference(mix: MixingDistribution, u_max: int) -> np.ndarray:
    """Exact ruin probabilities psi(0..u_max) for the mixed Poisson claims.

    Builds the claim masses on 0..u_max (closed form or certified quadrature)
    with the certified survival past them as declared tail, and runs the
    recursion, which keeps relative accuracy at every u.
    """
    u_max = _whole_number(u_max, "u_max")
    claims = mp_claims_pmf(mix, x_max=max(u_max, 1))
    return psi_recursion(claims, u_max)
