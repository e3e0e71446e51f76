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
  draws, with a sample standard error.  A NegBin(u, q) draw is the sum of
  u mod 32 inverse-cdf geometric draws and u // 32 NegBin(32, q) draws, each
  of those one uniform read through the bucket table of the NegBin(32, q)
  cdf (`distributions._claim_table`, the simulator's sampler), built once per
  n and kept for the last 4 n.  So a call spends m (u mod 32 + u // 32)
  uniforms, not m u, and for u < 32 it draws exactly what u geometric draws
  per sample did.  The uniforms are drawn in row slices of one reused buffer
  of 2^15 values, the same stream as whole blocks, so a call holds O(m)
  memory for any u.

Only Cbar depends on the mixing law; the NegBin factor depends on (u, n)
alone.  So method 1's window, per (u, n, pmf_floor), and method 2's
draws, per (u, n, m, seed), are kept across laws in one memo of read-only
arrays under 2^17 values (1 MB), least recently used out first, and the
laws of a paper table compute each once.  An array over 2^14 values is
never kept (at n = 500 a window past u = 20: 267,759 values at u = 500).

The coefficients use the limiting substitution Cbar_{0,n} = E(Lambda); the
raw grid sum survives only inside the equilibrium-weight normalization,
taken once per law.  They come from the renewal solver in `renewal`, whose
table per (mixing law, n), cached beside the NBM specs', is extended in
place as u grows, so sweeping u is cheap after the first call.  The grid is
the paper's infinite sum over every j >= 0.  It stops at the first point J
where the survival drops below 1e-16 if that lies within the first 2^16
points; otherwise it runs on to infinity.  One search finds J: a probe at
2^16 - 1, then two rounds of 256 evenly spaced probes.  A law then stores
its first min(J, 2^14) values, evaluated once.  A longer grid reads single
values past its head on demand, and takes the tail sums from l past the
head in closed form, grid_tail(l) - grid_tail(J), with grid_tail(inf) = 0
(`MixingDistribution.grid_tail`).  So no law is too heavy-tailed to grid,
and a law's grid holds O(min(J, 2^14)) values.

A grid's record is `renewal.CoefficientSeq`, as for NBM specs: ``cbar_n``,
a view of the table whose first term is exactly E(Lambda), read as psi(0)
by both methods; ``grid_points``, the grid's length J, or 2^16 for a grid
that runs on; and ``renewal``, the solver, whose ``total`` is the grid sum.
"""

from __future__ import annotations

import math
import mmap
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .distributions import (
    MixingDistribution,
    _claim_table,
    _draw_claims,
    _whole_number,
    mp_claims_pmf,
)
from .nbm import _certified_window, _psi_series, _series_window
from .recursion import psi_recursion
from .renewal import CoefficientSeq, Weights, _tables

__all__ = [
    "MpApproxConfig",
    "mp_coefficients",
    "psi_mp_method1",
    "psi_mp_method2",
    "psi_mp_exact_reference",
]

# The mixing grid stops below a survival of _GRID_TOL if it gets there
# within its first _SEARCH points, of which a law stores at most _HEAD.  The
# stop is found by rounds of _PROBES evenly spaced values.
_GRID_TOL = 1e-16
_SEARCH = 1 << 16
_HEAD = 1 << 14
_PROBES = 256
# Values in method 2's reused buffer of uniforms.
_DRAW_BUFFER = 1 << 15
# Values the memo of law-free series factors keeps (1 MB), at most an eighth in one array.
_FACTOR_BUDGET = 1 << 17
# Method 2 draws NegBin(u, q) in blocks of NegBin(_BLOCK, q), whose window leaves
# out at most _BLOCK_TOL of its mass.
_BLOCK = 32
_BLOCK_TOL = 1e-16


@dataclass(frozen=True)
class MpApproxConfig:
    """Grid and sampling parameters for the two approximation methods.

    ``n`` is the grid refinement, ``m`` the Monte Carlo sample size of
    method 2, ``pmf_floor`` the series truncation floor, and ``seed``, a
    nonnegative integer, keys method 2's draws.  The mixing grid has no cap:
    it stops at a survival of 1e-16 within its first 2^16 points, or else
    runs on to infinity; past its first 2^14 points its tail sums are in
    closed form.
    """

    n: int = 500
    m: int = 1000
    pmf_floor: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _whole_number(self.n, "n", least=1))
        object.__setattr__(self, "m", _whole_number(self.m, "m", least=1))
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))
        if not self.pmf_floor > 0.0:
            raise ValueError("pmf_floor must be positive")


# -- the mixing grid -------------------------------------------------------------


class _Grid(Weights):
    """Fbar(j/n) for j below the grid's end J, its first _HEAD values stored, as
    solver weights; J is the whole number `_grid_end` finds, at least _HEAD, or inf.

    A value past the stored head is evaluated when read.  The tail sum from a
    block boundary l past the head is grid_tail(l) - grid_tail(J), and 0 from J
    on (`MixingDistribution.grid_tail`), so the grid is the whole sum at the
    memory cost of its head.
    """

    def __init__(self, mix: MixingDistribution, n: int, head: np.ndarray, end):
        self._mix, self._n, self._head, self._end = mix, n, head.size, end
        self._past_end = mix.grid_tail(end, n) if end < math.inf else 0.0
        super().__init__(head, beyond=self._far_tail(head.size))
        self.size = end

    def read(self, lo: int, hi: int) -> np.ndarray:
        if hi <= self._head:
            return super().read(lo, hi)
        far = self._mix.sf(np.arange(max(lo, self._head), hi, dtype=float) / self._n)
        return np.concatenate((super().read(lo, self._head), far))

    def tail(self, l: int) -> np.longdouble:
        if l <= self._head:
            return super().tail(l)
        return self._far_tail(l)

    def _far_tail(self, l: int) -> np.longdouble:
        if l >= self._end:
            return np.longdouble(0.0)
        return self._mix.grid_tail(l, self._n) - self._past_end


def _grid_end(mix: MixingDistribution, n: int):
    """The first j with Fbar(j/n) below 1e-16, or inf if Fbar((_SEARCH - 1)/n) is
    not below it: the stop a scan of every point would find, in rounds of _PROBES
    evenly spaced values over [0, _SEARCH)."""
    # Fbar(0) = P(Lambda > 0) >= 2^-53 once E(Lambda) > 0 is checked
    lo, hi = 0, _SEARCH - 1
    if not mix.sf(np.array([hi / n]))[0] < _GRID_TOL:
        return math.inf
    while hi - lo > 1:  # Fbar(lo/n) >= 1e-16 > Fbar(hi/n)
        js = np.append(np.arange(lo, hi, -(-(hi - lo) // _PROBES)), hi)
        below = np.flatnonzero(mix.sf(js[1:-1] / n) < _GRID_TOL)
        k = below[0] + 1 if below.size else js.size - 1
        lo, hi = int(js[k - 1]), int(js[k])
    return hi


def _table(mix: MixingDistribution, n: int):
    """The law's grid as solver weights, and its ``grid_points``: J, or 2^16.

    The head, min(J, _HEAD) values, is evaluated once the end J is found.  The
    solver takes the raw grid and normalizes it by its sum once, in extended
    precision: the coefficient identity is checked downstream to 1e-12 and
    double accumulation over ~1e5 grid points would eat most of that budget.
    """
    end = _grid_end(mix, n)
    head = mix.sf(np.arange(min(end, _HEAD), dtype=float) / n)
    grid = Weights(head) if end < _HEAD else _Grid(mix, n, head, end)
    return grid, min(grid.size, _SEARCH)


def mp_coefficients(
    mix: MixingDistribution, cfg: MpApproxConfig, k_max: int
) -> CoefficientSeq:
    """Coefficients Cbar_{0..k_max, n}, memoized and extended in place.

    The table of each (mixing law, n) grows in quarter octaves, to at most
    1.25 (k_max + 1) terms and at least 64; a request within it returns the
    same record, and no other law's extension blocks it (`renewal.TableCache`).
    Requires the net profit condition 0 < E(Lambda) < 1.
    """
    k_max = _whole_number(k_max, "k_max")
    return _tables.get((mix, cfg.n), k_max, mix.mean, lambda: _table(mix, cfg.n))


# -- the law-free factors ----------------------------------------------------------


class _FactorMemo:
    """Read-only arrays kept by key under one budget of values, oldest used out first.

    It holds the factors of the series that do not depend on the mixing law:
    method 1's window per (u, n, pmf_floor) and method 2's draws per
    (u, n, m, seed), so the laws of a table share them.  A view is kept as a
    copy, so it pins no more memory than the budget counts.  An array over an
    eighth of the budget is not kept: the memo holds at least 8 entries, and
    the large windows of a sweep in u do not push out the small draws its
    revisits read again.  The lock guards only the dict: two callers that
    miss one key both compute it, to the same bits.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        self._kept: OrderedDict = OrderedDict()
        self._held = 0

    def get(self, key, make) -> np.ndarray:
        with self._lock:
            a = self._kept.get(key)
            if a is not None:
                self._kept.move_to_end(key)
                return a
        a = make()
        if a.size <= self.budget // 8:
            if a.base is not None:
                a = a.copy()
            a.flags.writeable = False
            with self._lock:
                if key not in self._kept:
                    self._kept[key] = a
                    self._held += a.size
                    while self._held > self.budget:
                        self._held -= self._kept.popitem(last=False)[1].size
        return a


_factors = _FactorMemo(_FACTOR_BUDGET)


# -- method 1: truncated series ----------------------------------------------


def _window(u: int, n: int, floor: float) -> np.ndarray:
    """Method 1's NegBin(u, 1/(1+n)) window at ``floor``; ValueError if it is empty."""
    pmf = _series_window(u, 1.0 / (1.0 + n), floor)
    if not pmf.size:
        raise ValueError(
            f"every NegBin({u}, 1/{n + 1}) mass is below pmf_floor={floor}; "
            "lower the floor or the grid refinement"
        )
    return pmf


def psi_mp_method1(mix: MixingDistribution, u: int, cfg: MpApproxConfig) -> float:
    """Truncated coefficient series at surplus u."""
    u = _whole_number(u, "u")
    key = ("window", u, cfg.n, cfg.pmf_floor)
    window = partial(_factors.get, key, partial(_window, u, cfg.n, cfg.pmf_floor))
    return _psi_series(lambda k: mp_coefficients(mix, cfg, k), u, window)


# -- method 2: Monte Carlo over the mixing index ------------------------------


def _own_pages(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` in anonymous pages of its own, outside the heap.

    A table kept for the life of the process but built mid-sweep would sit among
    the heap's short-lived arrays and keep the space around it from being reused
    or returned: held in the heap, the 0.7 MB block table of n = 500 raised the
    peak resident memory of a u = 10..500 sweep by about 2 MB.
    """
    out = np.frombuffer(mmap.mmap(-1, a.nbytes), dtype=a.dtype)
    out[:] = a
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4)
def _block_law(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cdf of NegBin(_BLOCK, 1/(1+n)) and its int32 bucket table, read-only.

    The masses are the window that leaves out at most 1e-16 of the law, summed in
    place and divided by their total, so the last cdf value is exactly 1.0 and
    every uniform draws a point of the window.  The window is dropped once the two
    are copied to pages of their own; the tables of the last 4 n are kept.
    """
    q = 1.0 / (1.0 + n)
    cdf = _certified_window(_BLOCK, q, 1.0 - q, _BLOCK_TOL)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    cdf = _own_pages(cdf)
    return cdf, _own_pages(_claim_table(cdf))


def _uniform_slices(rng: np.random.Generator, m: int, cols: int, buf: np.ndarray):
    """Fill (m, cols) of the stream into ``buf`` and yield each (lo, hi, uniforms).

    The stream fills (m, step) blocks of columns row by row, step = 2^22 // m, and
    each block is drawn in slices of whole rows (or, for a row longer than the
    buffer, of one row), the same stream as whole blocks.
    """
    step = max(1, (1 << 22) // m)
    for done in range(0, cols, step):
        block = min(step, cols - done)
        width = min(block, buf.size)
        rows = buf.size // width
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            for c in range(0, block, width):
                unif = buf[: (hi - lo) * min(width, block - c)].reshape(hi - lo, -1)
                rng.random(out=unif)
                yield lo, hi, unif


def _negbin_draws(u: int, n: int, m: int, seed: int) -> np.ndarray:
    """m draws of NegBin(u, 1/(1+n)): u mod 32 geometric draws plus u // 32 blocks.

    One stream, keyed by (seed, u), first gives u mod 32 columns, each
    an inverse-cdf geometric draw, then u // 32 columns, each a NegBin(32, 1/(1+n))
    draw through the bucket table of `_block_law`.  The explicit inverse transforms
    keep output identical across generator library versions.  The uniforms go
    through one reused buffer of at most 2^15 values.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, u))))
    lq = math.log1p(-1.0 / (1.0 + n))  # log of the geometric miss probability
    geometric, blocks = u % _BLOCK, u // _BLOCK
    if blocks:
        cdf, table = _block_law(n)  # before the buffers, so its scratch and theirs do not add up
    # integer-valued sums below 2^53, so exact in float64 in any order
    total = np.zeros(m)
    buf = np.empty(min(_DRAW_BUFFER, m * max(geometric, blocks)))
    for lo, hi, unif in _uniform_slices(rng, m, geometric, buf):
        np.negative(unif, out=unif)
        np.log1p(unif, out=unif)
        np.divide(unif, lq, out=unif)
        np.floor(unif, out=unif)
        total[lo:hi] += unif.sum(axis=1)
    if blocks:
        size = min(buf.size, m * blocks)
        index, drawn = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.int32)
        for lo, hi, unif in _uniform_slices(rng, m, blocks, buf[:size]):
            idx, out = (a[: unif.size].reshape(unif.shape) for a in (index, drawn))
            _draw_claims(table, cdf, unif, idx, out)
            total[lo:hi] += out.sum(axis=1)
    return total.astype(np.int64)


def psi_mp_method2(
    mix: MixingDistribution, u: int, cfg: MpApproxConfig
) -> tuple[float, float]:
    """Monte Carlo estimate of the series and its sample standard error."""
    u = _whole_number(u, "u")
    if u == 0:
        return float(mp_coefficients(mix, cfg, 0).cbar_n[0]), 0.0
    key = ("draws", u, cfg.n, cfg.m, cfg.seed)
    z = _factors.get(key, partial(_negbin_draws, u, cfg.n, cfg.m, cfg.seed))
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
