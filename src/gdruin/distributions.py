"""Distribution machinery for integer claims, mixing laws, and their transforms.

Claim amounts live on {0, 1, 2, ...}.  Three representations matter here:

* :class:`DiscretePmf` -- a dense probability vector with an explicit tail
  remainder; the common currency every solver consumes.
* :class:`NbmSpec` -- a negative binomial mixture NBM(pi, p): a countable
  mixture of NegBin(k, p) components sharing p, with weights pi over
  k = 1, 2, ...  The family is closed under the equilibrium transform,
  which is what makes the coefficient recursion for ruin probabilities work.
* :class:`MixingDistribution` -- a nonnegative law for a random Poisson
  rate, in four families: Erlang mixtures (exponential and Erlang laws are
  one-component ones), tables of atoms (the point mass is one atom),
  Pareto and lognormal.  The induced mixed Poisson claim distribution
  either collapses to an NBM (Erlang mixing), has a closed form (atomic
  mixing) or takes QUADPACK's adaptive G10/K21 quadrature (Piessens et
  al., 1983), in numpy, with a claim vector's integrals in lockstep.

The special functions these need are private helpers here, in numpy and
`math` only, each written for the slice of arguments the package reads:
log Gamma at positive integers (`math.lgamma` below 20, Stirling's series
above); NegBin and Poisson survivals as sums of positive masses; the Erlang
survival, density and stop-loss as e^{-t} sum_j c_j t^j / j!; and erfc with
erfcx, from `math.erfc` on scalars and from piecewise Chebyshev
interpolants of erfcx on arrays.

The NegBin kernel reads log Gamma(1..N) for its windows from one module
table, with the same values.  The table grows in quarter octaves to at most
2^20 entries (8 MB), each time as a new read-only array: only a caller that
grows it takes the table's lock, and a reader keeps the array it sliced.
Values past 2^20 are computed per call and not kept.

One inverse-cdf sampler serves the simulator's claims and method 2's NegBin
blocks: a table of 2^16 buckets over a nondecreasing cdf in [0, 1] gives the
draw of every uniform in a bucket that holds no cdf value, and only the
rest are searched.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .renewal import _table_size

__all__ = [
    "DiscretePmf",
    "MixingDistribution",
    "NbmSpec",
    "QuadratureError",
    "geometric_pmf",
    "nbm_claims_pmf",
    "mp_claims_pmf",
]

# Mass-balance tolerance for stored distributions.
_SUM_TOL = 1e-12
# Certified relative tolerance for mixed Poisson quadrature.
_QUAD_TOL = 1e-10
# Integrals one quadrature pass takes in lockstep; a claim vector runs in batches of
# this many, which keeps the intervals held at once small.
_QUAD_BATCH = 64
# QUADPACK's qk21 rule on [-1, 1]: Kronrod nodes x >= 0 (x < 0 mirror them), their
# weights, and the weights of the 10-point Gauss rule on every second node.
_QK21 = np.array([
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390, 0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190, 0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805, 0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077208980629563, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707, 0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068, 0.295524224714752870173892994651338),
    (0.0, 0.149445554002916905664936468389821, 0.0),
])
_GK_NODES = np.r_[-_QK21[:, 0], _QK21[-2::-1, 0]]
_GK_KRONROD, _GK_GAUSS = np.r_[_QK21, _QK21[-2::-1]][:, 1:].T.copy()
# Longest claim vector the builders make: the simulator's stop bound costs
# O(S^2) on a support of S points.
_SUPPORT_CAP = 1 << 17
# Shortest claim vector built to a tail tolerance: the recursion can read 65
# surplus levels of it at any tolerance.
_MIN_SUPPORT = 64


class QuadratureError(RuntimeError):
    """Adaptive integration could not certify the requested tolerance."""


def _read_pairs(path: str) -> list[tuple[float, float]]:
    """The numeric rows ``x,y`` of a two-column CSV file, in file order.

    Blank rows and rows starting with ``#`` are skipped, and so are rows that
    do not parse as two numbers (a header) before the first numeric row; such
    a row after it, or a row with one cell, is an error.
    """
    pairs: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not "".join(row).strip() or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: expected two columns, got {row!r}")
            try:
                pairs.append((float(row[0]), float(row[1])))
            except ValueError:
                if pairs:
                    raise ValueError(f"{path}: row {rows.line_num} {row!r} is not two numbers") from None
    return pairs


def _whole_number(x, name: str, least: int = 0) -> int:
    """``x`` as an int; ValueError naming ``name`` unless it is a whole number of at
    least ``least``, 0 or 1 (so also for inf, nan, None and a bool, which equals 0 or 1)."""
    k = None
    if not isinstance(x, (bool, np.bool_)):
        try:
            k = int(x)
        except (OverflowError, TypeError, ValueError):  # inf, nan, None
            pass
    if k is None or k != x or k < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'nonnegative'} integer")
    return k


# ---------------------------------------------------------------------------
# Claim distributions on {0, 1, 2, ...}
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """Probability mass function on {0, ..., support_max} plus a declared tail.

    Parameters
    ----------
    pmf : array_like
        ``pmf[x]`` is P(Y = x) for x = 0..len(pmf)-1.
    tail_mass : float, optional
        P(Y > support_max).  The builders here declare the law's certified
        survival, not 1 minus the stored masses, which is rounding once the
        tail is small.  Masses plus tail must sum to 1 (within 1e-12).
    mean : float, optional
        E(Y).  Required when ``tail_mass`` exceeds 1e-9, because a truncated
        vector no longer determines the mean.

    Notes
    -----
    ``survival[x]`` holds P(Y > x), accumulated from the tail and the high
    end of the support, so it is as precise as they are.  Beyond the
    stored support :meth:`sf` returns the declared tail mass, which is an
    upper bound on the true survival there; solvers that need exact survival
    values validate that the stored support is long enough.
    """

    pmf: np.ndarray
    tail_mass: float = 0.0
    mean: float = None  # type: ignore[assignment]
    survival: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pmf = np.ascontiguousarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a nonempty 1-D array")
        if np.any(pmf < 0.0) or not np.all(np.isfinite(pmf)):
            raise ValueError("pmf values must be finite and nonnegative")
        if not 0.0 <= self.tail_mass <= 1.0:
            raise ValueError("tail_mass must lie in [0, 1]")
        total = math.fsum(pmf.tolist()) + self.tail_mass
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"pmf plus tail_mass must sum to 1, got {total!r}")
        object.__setattr__(self, "pmf", pmf)

        upper = np.cumsum(pmf[::-1])[::-1]  # upper[x] = sum_{y >= x} pmf[y]
        survival = np.empty_like(pmf)
        survival[:-1] = upper[1:] + self.tail_mass
        survival[-1] = self.tail_mass
        object.__setattr__(self, "survival", survival)

        if self.mean is None:
            if self.tail_mass > 1e-9:
                raise ValueError("mean must be supplied when tail_mass exceeds 1e-9")
            mean = float(np.dot(np.arange(pmf.size, dtype=float), pmf))
            object.__setattr__(self, "mean", mean)
        else:
            object.__setattr__(self, "mean", float(self.mean))

    @classmethod
    def load_csv(cls, path: str) -> "DiscretePmf":
        """Read a two-column CSV ``value,probability`` (header optional) on
        0..max; the masses of a repeated value add up."""
        masses: dict[int, float] = {}
        for x, fx in _read_pairs(path):
            if not (x.is_integer() and x >= 0):
                raise ValueError(
                    f"pmf file {path}: support value {x!r} is not a nonnegative integer"
                )
            masses[int(x)] = masses.get(int(x), 0.0) + fx
        if not masses:
            raise ValueError(f"pmf file {path}: no usable rows")
        pmf = np.zeros(max(masses) + 1)
        for x, fx in masses.items():
            pmf[x] = fx
        return cls(pmf)

    @property
    def support_max(self) -> int:
        return self.pmf.size - 1

    def f(self, x: int) -> float:
        """P(Y = x); zero outside the stored support."""
        if x < 0 or x > self.support_max:
            return 0.0
        return float(self.pmf[x])

    def sf(self, x):
        """P(Y > x) at integers x, scalars or arrays; the declared tail mass beyond the
        stored support, which ``survival[support_max]`` holds."""
        arr = np.asarray(x)
        out = np.where(arr < 0, 1.0, self.survival[np.clip(arr, 0, self.support_max)])
        return float(out) if out.ndim == 0 else out


def geometric_pmf(p: float, tail_tol: float = 1e-12) -> DiscretePmf:
    """Geometric claim law f(y) = p (1-p)^y on {0, 1, ...}.

    The support is truncated where the survival (1-p)^(y+1) drops below
    ``tail_tol``; the remainder is carried as declared tail mass and the mean
    (1-p)/p is stored exactly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    lq = math.log1p(-p)
    n = max(1, math.ceil(math.log(tail_tol) / lq))
    y = np.arange(n, dtype=float)
    pmf = p * np.exp(y * lq)
    tail = math.exp(n * lq)  # (1-p)^n = P(Y > n-1)
    return DiscretePmf(pmf, tail_mass=tail, mean=(1.0 - p) / p)


def equilibrium(claims: DiscretePmf, w: int) -> np.ndarray:
    """The equilibrium (ladder-height) law f_e(x) = P(Y > x) / E(Y) on the cells
    x = 0..w-1, the last cell holding P(Y_e >= w-1); the simulator's severity
    check bins against it."""
    cells = claims.sf(np.arange(w))
    cells[-1] += max(0.0, claims.mean - math.fsum(cells.tolist()))
    return cells / claims.mean


# ---------------------------------------------------------------------------
# Inverse-cdf draws through a bucket table
# ---------------------------------------------------------------------------

_BUCKETS = 1 << 16  # inverse-cdf table buckets; u * 2^16 is exact
_TABLE_PIECE = 1 << 12  # cdf values per piece while a table is built


def _claim_table(cdf: np.ndarray) -> np.ndarray:
    """Value drawn by every u in bucket b, [b, b + 1) / 2^16, or -1 where a
    cdf value lies strictly inside the bucket and the value depends on u.

    ``cdf`` must be nondecreasing in [0, 1] and end at exactly 1.0, so every
    u in [0, 1) draws an index below ``cdf.size``.  The table is int32, built
    from pieces of the cdf, so it needs no scratch of the cdf's length.
    """
    # entry b: searchsorted(cdf, b / 2^16, "right"), the cdf values at or below
    # the left edge; the cdf is sorted, so it is the index past the last value
    # whose bucket edge ceil(2^16 cdf) is at most b
    table = np.zeros(_BUCKETS + 1, dtype=np.int32)
    split = np.zeros(_BUCKETS, dtype=bool)
    for lo in range(0, cdf.size, _TABLE_PIECE):
        scaled = cdf[lo : lo + _TABLE_PIECE] * _BUCKETS  # exact
        edge = np.ceil(scaled).astype(np.intp)
        split[edge[edge != scaled] - 1] = True
        last = np.flatnonzero(np.diff(edge, append=_BUCKETS + 1))  # the last of each edge
        table[edge[last]] = lo + last + 1
    np.maximum.accumulate(table, out=table)
    table = table[:_BUCKETS]
    table[split] = -1
    return table


def _draw_claims(
    table: np.ndarray, cdf: np.ndarray, u: np.ndarray, index: np.ndarray, out: np.ndarray
) -> None:
    """Write searchsorted(cdf, u, "right") to ``out``.

    ``table`` is `_claim_table` of the same nondecreasing ``cdf``, which ends at
    exactly 1.0, so each u in [0, 1) draws an index below ``cdf.size``.  u * 2^16
    is exact, so its integer part is u's bucket; only draws in a bucket that
    holds a cdf value (-1 in the table) are searched.  ``index`` is scratch of
    u's shape and dtype intp.
    """
    np.multiply(u, _BUCKETS, out=index, casting="unsafe")
    np.take(table, index, out=out, mode="clip")
    split = np.flatnonzero(out < 0)
    if split.size:
        np.put(out, split, np.searchsorted(cdf, np.take(u, split), side="right"))


# ---------------------------------------------------------------------------
# Negative binomial machinery
# ---------------------------------------------------------------------------


# log Gamma(j) at j = 1..19, where Stirling's series falls short of double precision
_LGAMMA_SMALL = np.array([math.inf] + [math.lgamma(j) for j in range(1, 20)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_series(z):
    # log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 for z >= 20, within 2e-15
    r = 1.0 / (z * z)
    return (1 / 12 - (1 / 360 - (1 / 1260 - r / 1680) * r) * r) / z


def _stirling(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log Gamma(z) for z >= 20 by Stirling's series.  Past z = 2000 the terms after
    1/(12 z) are below 0.2 ulp and left out.  Works in place in ``out``, with one
    temporary, as the window tables are long."""
    out = np.log(z, out=out)
    tmp = z - 0.5
    out *= tmp
    out -= z
    out += _HALF_LOG_2PI
    np.divide(1 / 12, z, out=tmp)
    near = z < 2000.0
    tmp[near] = _stirling_series(z[near])
    out += tmp
    return out


def _log_gamma(z) -> np.ndarray:
    """log Gamma(z) at positive integers z, elementwise: `math.lgamma`'s values below 20,
    Stirling's series above, within a few ulps of the value at every z."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = _stirling(np.maximum(flat, 20.0))
    small = flat < 20.0
    out[small] = _LGAMMA_SMALL[flat[small].astype(np.intp)]
    return out.reshape(z.shape)


def _log_gamma_extend(head: np.ndarray, n: int) -> np.ndarray:
    """log Gamma(j) at j = 1..n: ``head`` and then Stirling's series, read-only."""
    out = np.empty(n)
    out[: head.size] = head
    _stirling(np.arange(head.size + 1.0, n + 1.0), out=out[head.size :])
    out.flags.writeable = False
    return out


# The shared log Gamma table, which keeps at most 2^20 entries (8 MB).
_LG_CAP = 1 << 20
_LG_LOCK = threading.Lock()
_lg_table = _log_gamma_extend(_LGAMMA_SMALL[1:], 19)


def _log_gamma_table(n: int) -> np.ndarray:
    """log Gamma(j) at j = 1..n as entry j - 1, read-only, the same values as `_log_gamma`.

    A slice of the module table, which only a caller that grows it locks: it grows
    to the quarter-octave size `renewal._table_size` gives, up to 2^20 entries, as a
    new array, so a reader holding a slice of the old one needs no lock.  Entries past
    2^20 are computed the same way per call and not kept.
    """
    global _lg_table
    table = _lg_table
    if n > table.size:
        with _LG_LOCK:
            table = _lg_table
            if table.size < min(n, _LG_CAP):
                table = _lg_table = _log_gamma_extend(table, min(_table_size(n - 1), _LG_CAP))
        if n > table.size:
            return _log_gamma_extend(table, n)
    return table[:n]


def _nb_logpmf(k, p: float, x) -> np.ndarray:
    """log P(NegBin(k, p) = x) = log C(k+x-1, x) + k log p + x log(1-p), for a positive
    integer k, or a column of them for one row per k, at increasing nonnegative integers x.

    The series windows read x = 0..w-1, passed as ``range(w)`` (or as that array):
    there, unless some k exceeds 2w, the log Gamma values are slices of the shared
    table (`_log_gamma_table`), and a scalar k allocates only the output and one
    scratch array.  Elsewhere log Gamma is evaluated in one call at every k + x, k and
    x + 1.  Both forms take the same log Gamma values in the same order of operations,
    so they give the same bits, each within a few ulps of the largest log Gamma: the
    kernel is as safe for k + x in the millions as `_log_gamma` is.
    """
    k = np.asarray(k, dtype=float)
    if isinstance(x, range):
        width = len(x)
    else:
        x = np.asarray(x, dtype=float)
        whole = x.ndim == 1 and x.size and x[0] == 0.0 and x[-1] == x.size - 1
        width = x.size if whole else 0
    if width and k.max() <= 2 * width:
        lg = _log_gamma_table(int(k.max()) + width - 1)  # lg[j - 1] = log Gamma(j)
        ki = k.astype(np.intp) - 1
        if k.ndim == 0:
            out = np.subtract(lg[int(ki) : int(ki) + width], lg[ki])
        else:
            out = sliding_window_view(lg, width)[ki[:, 0]]
            out -= lg[ki]
        out -= lg[:width]
        out += k * math.log(p)
        scratch = np.arange(width, dtype=float)
        scratch *= math.log1p(-p)
        out += scratch
        return out
    if isinstance(x, range):
        x = np.arange(float(width))
    kx = k + x
    lg = _log_gamma(np.concatenate((kx.ravel(), k.ravel(), x.ravel() + 1.0)))
    out = lg[: kx.size].reshape(kx.shape) - lg[kx.size : kx.size + k.size].reshape(k.shape)
    out -= lg[kx.size + k.size :].reshape(x.shape)
    out += k * math.log(p)
    out += x * math.log1p(-p)
    return out


@dataclass(frozen=True)
class NbmSpec:
    """Negative binomial mixture NBM(pi, p).

    ``weights[i]`` is the mixing weight q_{i+1} on the NegBin(i+1, p)
    component; mixture indices start at 1.  The weights are the whole law
    and sum to 1: a spec has no mass past its last weight.
    """

    weights: tuple[float, ...]
    p: float

    def __post_init__(self):
        w = tuple(float(q) for q in self.weights)
        if not w:
            raise ValueError("at least one mixture weight is required")
        if any(q < 0.0 or not math.isfinite(q) for q in w):
            raise ValueError("mixture weights must be finite and nonnegative")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if abs(math.fsum(w) - 1.0) > _SUM_TOL:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def weight_mean(self) -> float:
        """E(N) over the weights."""
        return math.fsum((i + 1) * q for i, q in enumerate(self.weights))

    @property
    def claim_mean(self) -> float:
        """E of the mixture: E(N) (1-p)/p."""
        return self.weight_mean * (1.0 - self.p) / self.p

    def weight_survival(self) -> np.ndarray:
        """P(N > j) for j = 0..len(weights)-1, accumulated from the high end."""
        arr = np.asarray(self.weights, dtype=float)
        return np.cumsum(arr[::-1])[::-1]  # P(N > j) = P(N >= j+1)


def _nbm_masses(spec: NbmSpec, x: np.ndarray) -> np.ndarray:
    """Mixture masses sum_k q_k P(NegBin(k, p) = x) at each of the nonnegative integers x."""
    k = np.arange(1.0, len(spec.weights) + 1.0)[:, None]
    return np.asarray(spec.weights) @ np.exp(_nb_logpmf(k, spec.p, x))


def _nbm_sf(spec: NbmSpec, y: int) -> float:
    """P(Y > y) for the mixture, sum_k q_k P(NegBin(k, p) > y)."""
    # P(NegBin(k, p) > y) = sum_{i<k} P(NegBin(y+1, 1-p) = i), so the mixture weighs
    # mass i by P(N > i)
    tails = spec.weight_survival()
    masses = np.exp(_nb_logpmf(y + 1.0, 1.0 - spec.p, range(tails.size)))
    return min(1.0, float(np.dot(tails, masses)))


def _nbm_vector(spec: NbmSpec, x_max: int) -> tuple[np.ndarray, float]:
    """The mixture masses on 0..x_max and the survival P(Y > x_max)."""
    return _nbm_masses(spec, np.arange(x_max + 1.0)), _nbm_sf(spec, x_max)


def _claims(vector, sf, mean: float, x_max: int | None, tail_tol: float) -> DiscretePmf:
    """Claims on 0..x_max with the certified survival sf(x_max) as declared tail, the two
    from ``vector(x_max)``; without ``x_max``, x_max is the first x >= 64 with
    sf(x) < ``tail_tol``, by doubling and bisection.
    """
    if x_max is None:
        if not 0.0 < tail_tol < 1.0:
            raise ValueError("tail_tol must lie in (0, 1)")
        lo, x_max = _MIN_SUPPORT - 1, _MIN_SUPPORT
        while not sf(x_max) < tail_tol and x_max <= _SUPPORT_CAP:
            lo, x_max = x_max, 2 * x_max
        while x_max - lo > 1 and x_max <= _SUPPORT_CAP:  # sf(lo) >= tail_tol > sf(x_max)
            mid = (lo + x_max) // 2
            lo, x_max = (lo, mid) if sf(mid) < tail_tol else (mid, x_max)
    x_max = _whole_number(x_max, "x_max")
    if x_max > _SUPPORT_CAP:
        raise RuntimeError(f"claim support exceeds {_SUPPORT_CAP} points")
    pmf, tail = vector(x_max)
    return DiscretePmf(pmf, tail_mass=tail, mean=mean)


def nbm_claims_pmf(
    spec: NbmSpec,
    x_max: int | None = None,
    tail_tol: float = 1e-12,
) -> DiscretePmf:
    """Materialize the mixture as a DiscretePmf, like `mp_claims_pmf`.

    The vector covers 0..x_max, or without ``x_max`` runs to the first
    y >= 64 with P(Y > y) < ``tail_tol``; the declared tail is the closed form
    P(Y > x_max), and the exact mean E(N)(1-p)/p is stored.
    """
    vector = partial(_nbm_vector, spec)
    return _claims(vector, partial(_nbm_sf, spec), spec.claim_mean, x_max, tail_tol)


# ---------------------------------------------------------------------------
# Mixing laws for a random Poisson rate
# ---------------------------------------------------------------------------

# Past this t, e^{-t} is within a few decades of underflow.
_EXP_FLOOR = 700.0
# erfcx on arrays: polynomials of this degree on pieces uniform in y = c / (c + z) in
# (0, 1], evaluated in blocks of _BLOCK points, whose temporaries stay in cache.
_ERFCX_DEGREE = 4
_ERFCX_PIECES = 512
_ERFCX_C = 4.0
_BLOCK = 8192


def _poisson_sum(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j coef[j] e^{-t} t^j / j! at each t >= 0, a sum of positive terms for
    nonnegative coef: the Erlang-family survival, density and stop-loss, and the
    chi-square survival at even degrees of freedom.

    The terms run from e^{-t} by factors t / j; where e^{-t} would underflow
    they are taken in log form, j log t - t - log j!.
    """
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).ravel()
    term = np.exp(-t)
    out = coef[0] * term
    for j in range(1, len(coef)):
        term *= t
        term /= j
        out += coef[j] * term
    deep = t > _EXP_FLOOR
    if deep.any():
        j = np.arange(float(len(coef)))[:, None]
        out[deep] = coef @ np.exp(_poisson_logpmf(t[deep], j))
    return out.reshape(shape)


def _erfcx(v: float) -> float:
    """The scaled complement exp(v^2) erfc(v) of a scalar, to a few ulps: `math.erfc`
    while it is a normal number, the asymptotic series past that."""
    if v < -26.63:  # 2 exp(v^2) overflows
        return math.inf
    if v < 26.0:
        hi = float(np.float32(v))  # v^2 = hi^2 + (v - hi)(v + hi), hi^2 exact
        return math.exp(hi * hi) * math.exp((v - hi) * (v + hi)) * math.erfc(v)
    r = -0.5 / (v * v)
    term = total = 1.0
    j = 0
    while abs(term) > 1e-17:
        j += 1
        term *= (2 * j - 1) * r
        total += term
    return total / (v * math.sqrt(math.pi))


@cache
def _erfcx_pieces() -> np.ndarray:
    """Coefficients of t^0..t^degree, one column per piece, of the polynomials that
    interpolate erfcx(z) / y at the Chebyshev nodes of each piece of y, with t in [0, 1]
    across the piece.  The quotient tends to 1 / (c sqrt(pi)) as z grows, so they keep
    relative accuracy all the way out."""
    deg, pieces, c = _ERFCX_DEGREE, _ERFCX_PIECES, _ERFCX_C
    t = (1.0 + np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))) / 2.0
    y = (np.arange(pieces)[:, None] + t) / pieces
    values = np.array([_erfcx(c / v - c) / v for v in y.ravel()]).reshape(y.shape)
    coef = np.linalg.solve(np.vander(t, increasing=True), values.T)
    coef.flags.writeable = False
    return coef


def _erfcx_block(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) at each z >= 0, within 2e-15 relative."""
    coef = _erfcx_pieces()
    y = _ERFCX_C / (_ERFCX_C + z)
    t = y * _ERFCX_PIECES
    piece = t.astype(np.intp)
    np.minimum(piece, _ERFCX_PIECES - 1, out=piece)
    t -= piece
    c = np.take(coef, piece, axis=1)
    out = c[-1]
    for row in c[-2::-1]:
        out *= t
        out += row
    out *= y
    return out


def _erfc(z) -> np.ndarray:
    """erfc at each z, within 2e-15 relative: exp(-z^2) erfcx(|z|), the square
    split so that no rounding of z^2 reaches the exponent, and 2 minus that below 0."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK):
        b = flat[lo : lo + _BLOCK]
        a = np.abs(b)
        hi = np.minimum(a, 27.0).astype(np.float32).astype(float)  # erfc(27) underflows
        pos = hi - a
        pos *= a + hi
        np.exp(pos, out=pos)  # exp(hi^2 - a^2)
        hi *= hi
        np.negative(hi, out=hi)
        pos *= np.exp(hi, out=hi)
        pos *= _erfcx_block(a)
        neg = b < 0.0
        pos[neg] = 2.0 - pos[neg]
        out[lo : lo + _BLOCK] = pos
    return out.reshape(z.shape)


@dataclass(frozen=True)
class MixingDistribution:
    """Nonnegative law for a random Poisson rate, in one of four families.

    ``kind`` names the family: ``"erlang_mixture"`` (``weights`` on the Erlang
    shapes 1, 2, ... and ``params`` = (beta,)), ``"atoms"`` (``atoms`` holds
    the (support, cdf) tuples of a tabulated law), ``"pareto"`` and
    ``"lognormal"`` (``params`` their parameters).  Use the classmethod
    constructors: exponential and Erlang laws are one-component Erlang
    mixtures, and the point mass is a one-atom table, so equal laws are equal
    values and share every cache entry.
    """

    kind: str
    params: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    atoms: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def exponential(cls, beta: float) -> "MixingDistribution":
        """Exponential rate law with rate beta (mean 1/beta): Erlang shape 1."""
        return cls.erlang_mixture((1.0,), beta)

    @classmethod
    def erlang(cls, shape: int, beta: float) -> "MixingDistribution":
        """Erlang(shape, beta): sum of `shape` exponentials of rate beta."""
        shape = _whole_number(shape, "shape", least=1)
        return cls.erlang_mixture((0.0,) * (shape - 1) + (1.0,), beta)

    @classmethod
    def erlang_mixture(cls, weights: Sequence[float], beta: float) -> "MixingDistribution":
        """Mixture of Erlang(k, beta) components, k = 1..len(weights)."""
        w = tuple(float(q) for q in weights)
        if not w or any(not 0.0 <= q < math.inf for q in w):
            raise ValueError("weights must be finite, nonnegative and nonempty")
        if abs(math.fsum(w) - 1.0) > _SUM_TOL:
            raise ValueError("weights must sum to 1")
        if not 0.0 < beta < math.inf:
            raise ValueError("beta must be positive and finite")
        return cls("erlang_mixture", (float(beta),), weights=w)

    @classmethod
    def pareto(cls, alpha: float, theta: float) -> "MixingDistribution":
        """Pareto with survival (theta/(theta+x))^alpha; mean theta/(alpha-1)."""
        if not (0.0 < alpha < math.inf and 0.0 < theta < math.inf):
            raise ValueError("alpha and theta must be positive and finite")
        return cls("pareto", (float(alpha), float(theta)))

    @classmethod
    def lognormal(cls, m: float, s: float) -> "MixingDistribution":
        """Lognormal: log of the rate is Normal(m, s^2)."""
        if not (math.isfinite(m) and 0.0 < s < math.inf):
            raise ValueError("m must be finite and s positive and finite")
        return cls("lognormal", (float(m), float(s)))

    @classmethod
    def degenerate(cls, value: float) -> "MixingDistribution":
        """Point mass, the plain Poisson(value) case: a one-atom table."""
        if not 0.0 <= value < math.inf:
            raise ValueError("value must be finite and nonnegative")
        return cls.from_cdf_table((value,), (1.0,))

    @classmethod
    def from_cdf_table(cls, support: Sequence[float], cdf: Sequence[float]) -> "MixingDistribution":
        """Tabulated law with atoms at `support` and cumulative values `cdf`."""
        xs = tuple(float(v) for v in support)
        cs = tuple(float(v) for v in cdf)
        if len(xs) != len(cs) or not xs:
            raise ValueError("support and cdf must be nonempty and equally long")
        if any(not 0.0 <= x < math.inf for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("support must be finite, nonnegative and strictly increasing")
        if any(not 0.0 <= c <= 1.0 for c in cs) or any(b < a for a, b in zip(cs, cs[1:])):
            raise ValueError("cdf values must be nondecreasing within [0, 1]")
        if abs(cs[-1] - 1.0) > 1e-9:
            raise ValueError("cdf must reach 1 at the last support point")
        return cls("atoms", atoms=(xs, cs[:-1] + (1.0,)))  # the last atom takes what is left

    @classmethod
    def load_cdf_table(cls, path: str) -> "MixingDistribution":
        """Read a two-column CSV ``lambda,cdf`` (header optional)."""
        pairs = _read_pairs(path)
        return cls.from_cdf_table([x for x, _ in pairs], [c for _, c in pairs])

    # -- law ----------------------------------------------------------------

    @property
    def mean(self) -> float:
        if self.kind == "erlang_mixture":
            return math.fsum((i + 1) * q for i, q in enumerate(self.weights)) / self.params[0]
        if self.kind == "pareto":
            alpha, theta = self.params
            return theta / (alpha - 1.0) if alpha > 1.0 else math.inf
        if self.kind == "lognormal":
            m, s = self.params
            return math.exp(m + 0.5 * s * s)
        rates, masses = _atoms(self)  # type: ignore[misc]
        return float(np.dot(rates, masses))

    def sf(self, x):
        """Survival P(rate > x); accepts scalars or arrays."""
        arr = np.asarray(x, dtype=float)
        if self.kind == "erlang_mixture":
            # P(Gamma(i+1, beta) > x) = e^{-t} sum_{j<=i} t^j / j!, so t^j / j! weighs P(shape > j)
            tails = np.cumsum(self.weights[::-1])[::-1]
            out = np.where(arr <= 0.0, 1.0, _poisson_sum(tails, self.params[0] * np.maximum(arr, 0.0)))
        elif self.kind == "pareto":
            alpha, theta = self.params
            out = np.where(arr <= 0.0, 1.0, (theta / (theta + np.maximum(arr, 0.0))) ** alpha)
        elif self.kind == "lognormal":
            m, s = self.params
            safe = np.maximum(arr, np.finfo(float).tiny)
            out = np.where(arr <= 0.0, 1.0, 0.5 * _erfc((np.log(safe) - m) / (s * math.sqrt(2.0))))
        else:
            xs, cs = self.atoms  # type: ignore[misc]
            idx = np.searchsorted(np.asarray(xs), arr, side="right")
            cdf_ext = np.concatenate(([0.0], np.asarray(cs)))
            out = 1.0 - cdf_ext[idx]
        if np.ndim(x) == 0:
            return float(out)
        return out

    def as_nbm(self) -> NbmSpec | None:
        """NBM(weights, beta/(beta+1)) for Erlang mixing at rate beta; None otherwise."""
        if self.kind != "erlang_mixture":
            return None
        beta = self.params[0]
        return NbmSpec(self.weights, beta / (beta + 1.0))

    def _pdf(self, lam):
        """Density, only defined for the absolutely continuous kinds; accepts scalars or arrays."""
        arr = np.asarray(lam, dtype=float)
        if self.kind == "erlang_mixture":
            beta = self.params[0]
            out = beta * _poisson_sum(np.asarray(self.weights), beta * arr)
        elif self.kind == "pareto":
            alpha, theta = self.params
            out = alpha * theta**alpha / (theta + arr) ** (alpha + 1.0)
        elif self.kind == "lognormal":
            m, s = self.params
            safe = np.maximum(arr, np.finfo(float).tiny)
            z = (np.log(safe) - m) / s
            out = np.where(arr <= 0.0, 0.0, np.exp(-0.5 * z * z) / (safe * s * math.sqrt(2.0 * math.pi)))
        else:
            raise ValueError(f"no density for mixing kind {self.kind!r}")
        return float(out) if np.ndim(lam) == 0 else out

    def _stop_loss(self, x: float) -> float:
        """E[(rate - x)+] for x > 0, in closed form for the absolutely continuous kinds."""
        if self.kind == "erlang_mixture":
            # the integral of the survival past x: t^j / j! weighs sum_{l >= j} P(shape > l) / beta
            beta = self.params[0]
            return float(_poisson_sum(np.cumsum(np.cumsum(self.weights[::-1]))[::-1], beta * x)) / beta
        if self.kind == "pareto":
            alpha, theta = self.params
            return theta * (theta / (theta + x)) ** (alpha - 1.0) / (alpha - 1.0)
        if self.kind == "lognormal":
            m, s = self.params
            d = (m - math.log(x)) / s
            if d < 0.0:  # past the median the two terms below nearly cancel
                u = -d / math.sqrt(2.0)
                gap = _erfcx(u - s / math.sqrt(2.0)) - _erfcx(u)
                return 0.5 * x * math.exp(-0.5 * d * d) * gap
            # Phi(v) = erfc(-v / sqrt 2) / 2
            return 0.5 * (math.exp(m + 0.5 * s * s) * math.erfc(-(d + s) / math.sqrt(2.0))
                          - x * math.erfc(-d / math.sqrt(2.0)))
        raise ValueError(f"no stop-loss transform for mixing kind {self.kind!r}")

    def grid_tail(self, a: int, n: int) -> np.longdouble:
        """The grid survival sum sum_{j >= a} sf(j/n), for a >= 1, in closed form,
        as an extended-precision scalar.

        Atomic laws give the step sum, taken in extended precision, so rounded to
        a double it is correct unless it lies within about 2^-11 ulp of a
        rounding tie.  The continuous kinds use Euler-Maclaurin,
        n E[(rate - a/n)+] + sf(a/n)/2 + pdf(a/n)/(12 n), whose first neglected
        term is pdf''(a/n)/(720 n^3).
        """
        if self.kind == "atoms":
            xs, cs = self.atoms  # type: ignore[misc]
            xs = np.asarray(xs)
            # first grid index j with j/n >= x for each atom x, by the comparison sf makes
            ends = np.ceil(xs * n)
            ends = ends - ((ends - 1.0) / n >= xs) + (ends / n < xs)
            starts = np.maximum(np.concatenate(([0.0], ends[:-1])), a)
            levels = 1.0 - np.concatenate(([0.0], cs[:-1]))  # sf between atoms
            counts = np.maximum(ends - starts, 0.0)
            return np.dot(levels.astype(np.longdouble), counts.astype(np.longdouble))
        x = a / n
        return np.longdouble(n * self._stop_loss(x) + self.sf(x) / 2.0 + self._pdf(x) / (12.0 * n))


def _poisson_logpmf(lam, x: np.ndarray) -> np.ndarray:
    # x log(lam) - lam - log x!, with x log(lam) = 0 at x = 0 for every lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0.0, x * np.log(lam), 0.0)
    out -= lam
    out -= _log_gamma(x + 1.0)
    return out


def _poisson_sf(x: int, lam: np.ndarray) -> np.ndarray:
    """P(Poisson(lam) > x) at each rate from positive masses: their sum upward from x + 1
    where x >= lam, the masses falling by lam / j or faster; else 1 minus the masses to
    x, which leave a complement of order 1."""
    out = np.empty_like(lam)
    low = lam > x
    out[low] = 1.0 - np.exp(_poisson_logpmf(lam[low, None], np.arange(x + 1.0))).sum(axis=1)
    rates = lam[~low]
    term = np.exp(_poisson_logpmf(rates, float(x + 1)))
    total, j = term.copy(), x + 1
    while np.any(term > 1e-17 * total):
        j += 1
        term *= rates / j
        total += term
    out[~low] = total
    return out


def _atoms(mix: MixingDistribution) -> tuple[np.ndarray, np.ndarray] | None:
    """(rates, masses) of atomic mixing; None otherwise."""
    if mix.kind != "atoms":
        return None
    xs, cs = mix.atoms  # type: ignore[misc]
    return np.asarray(xs), np.diff(np.concatenate(([0.0], cs)))


def _peak(x: int) -> float:
    """x log x - x - log x!, the log Poisson kernel at its peak rate = x."""
    if x < 20:
        return (x * math.log(x) if x > 0 else 0.0) - x - math.lgamma(x + 1.0)
    return -0.5 * math.log(2.0 * math.pi * x) - _stirling_series(x)


def _poisson_gamma_quad(mix: MixingDistribution, x, h):
    """E[ h(rate) rate^x e^{-rate} / x! ] to _QUAD_TOL relative at each x: the mass
    P(X = x) for h the mixing density, the survival P(X > x) = P(Gamma(x+1) <= rate)
    for h its survival.  ``x`` is an integer or an array of them and ``h`` one callable
    or one per x; a scalar x gives a float.

    QUADPACK's global adaptive scheme with the qk21 error estimate runs on every
    integral in lockstep, at most _QUAD_BATCH at a time: a pass evaluates the new
    intervals of every unfinished integral in one integrand call, each argument t and
    1 - t to its own relative precision, then bisects twice the fewest of each
    integral's intervals whose errors leave at most half its target, until the
    estimate is at most 1e-12 of the value or past 400 intervals.  Each integral's
    arithmetic depends on its own intervals alone, so a batch gives every x the bits
    of a batch of one.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    hs = [h] * xs.size if callable(h) else list(h)
    if xs.size > _QUAD_BATCH:
        return np.concatenate([
            _poisson_gamma_quad(mix, xs[lo : lo + _QUAD_BATCH], hs[lo : lo + _QUAD_BATCH])
            for lo in range(0, xs.size, _QUAD_BATCH)
        ])
    # substitute rate = t/(1-t) = t/s so each integral runs over (0, 1); take the log
    # Poisson kernel from its peak, as x log1p(d/x) - d + peak with d = rate - x, so
    # no terms of size x log x cancel
    peak = np.array([_peak(int(v)) for v in xs])
    fns = list(dict.fromkeys(hs))
    hid = np.array([fns.index(fn) for fn in hs])
    # break at the mean and around the Poisson peak rate = x, of width ~sqrt(x)
    w = 8.0 * np.sqrt(xs + 1.0)
    rates = np.stack((np.full_like(xs, mix.mean), np.maximum(xs - w, 0.0), xs, xs + w), axis=1)
    rates[xs == 0.0, 1:] = 1.0
    edges = np.sort(rates / (1.0 + rates), axis=1)
    edges = np.concatenate((np.zeros((xs.size, 1)), edges, np.ones((xs.size, 1))), axis=1)
    new = edges[:, 1:] > edges[:, :-1]
    lo, hi, row = edges[:, :-1][new], edges[:, 1:][new], np.nonzero(new)[0]
    parts, prow = np.zeros((4, 0)), np.zeros(0, dtype=np.intp)  # lo, hi, value, error
    value, error = np.empty(xs.size), np.empty(xs.size)
    while True:
        half = (hi - lo)[:, None] / 2.0
        t = lo[:, None] + half * (1.0 + _GK_NODES)
        s = (1.0 - hi)[:, None] + half * (1.0 - _GK_NODES)
        lam = t / s
        xr = xs[row, None]
        d = lam - xr
        fx = xr * np.log1p(d / np.maximum(xr, 1.0))  # 0 at x = 0
        fx -= d
        fx += peak[row, None]
        np.exp(fx, out=fx)
        for g, fn in enumerate(fns):
            rows = hid[row] == g
            fx[rows] *= fn(lam[rows])
        fx /= s
        fx /= s
        # row sums, not BLAS products, whose order could depend on the batch's shape
        kron = (fx * _GK_KRONROD).sum(axis=1)
        gauss = (fx * _GK_GAUSS).sum(axis=1)
        asc = (np.abs(fx - kron[:, None] / 2.0) * _GK_KRONROD).sum(axis=1)
        gap = np.minimum(200.0 * np.abs(kron - gauss), asc) / np.maximum(asc, 1e-300)
        err = np.maximum(asc * gap**1.5, 50.0 * 2.0**-52 * (np.abs(fx) * _GK_KRONROD).sum(axis=1))
        parts = np.concatenate((parts, [lo, hi, half[:, 0] * kron, half[:, 0] * err]), axis=1)
        prow = np.concatenate((prow, row))
        # each integral's intervals together, worst first
        order = np.lexsort((-parts[3], prow))
        parts, prow = parts[:, order], prow[order]
        first = np.flatnonzero(np.diff(prow, prepend=-1))
        count = np.diff(first, append=prow.size)
        total, bound = np.add.reduceat(parts[2:], first, axis=1)
        done = (bound <= 1e-12 * np.abs(total)) | (count > 400)
        ids = prow[first[done]]
        value[ids], error[ids] = total[done], bound[done]
        if done.all():
            break
        live = np.repeat(~done, count)
        parts, prow = parts[:, live], prow[live]
        count, total, bound = count[~done], total[~done], bound[~done]
        # bisect the fewest worst intervals whose errors leave at most half the target
        pos = np.arange(prow.size) - np.repeat(np.cumsum(count) - count, count)
        spent = np.zeros((count.size, count.max()))
        spent[np.repeat(np.arange(count.size), count), pos] = parts[3]
        np.cumsum(spent, axis=1, out=spent)
        need = np.count_nonzero(bound[:, None] - spent > 0.5e-12 * np.abs(total)[:, None], axis=1)
        split = pos <= np.repeat(need, count)
        (lo, hi), row = parts[:2, split], prow[split]
        parts, prow = parts[:, ~split], prow[~split]
        mid = (lo + hi) / 2.0
        cuts = np.stack((lo, (lo + mid) / 2.0, mid, (mid + hi) / 2.0, hi), axis=1)
        lo, hi, row = cuts[:, :-1].ravel(), cuts[:, 1:].ravel(), np.repeat(row, 4)
    bad = np.flatnonzero(~(error <= _QUAD_TOL * value))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"mixed Poisson quadrature at x={int(xs[i])}: relative error "
            f"{error[i] / value[i] if value[i] > 0.0 else math.inf:.2e} exceeds {_QUAD_TOL:.0e}"
        )
    return float(value[0]) if np.ndim(x) == 0 else value


def _mp_sf(mix: MixingDistribution, x: int) -> float:
    """P(X > x), certified to relative accuracy: closed forms for Erlang and
    atomic mixing, a positive Poisson-Gamma integral otherwise."""
    spec = mix.as_nbm()
    if spec is not None:
        return _nbm_sf(spec, x)
    atoms = _atoms(mix)
    if atoms is not None:
        rates, masses = atoms
        return float(np.dot(masses, _poisson_sf(x, rates)))
    return _poisson_gamma_quad(mix, x, mix.sf)


def _mp_vector(mix: MixingDistribution, x_max: int) -> tuple[np.ndarray, float]:
    """The mixed Poisson masses P(X = x) = E[ e^{-rate} rate^x / x! ] on 0..x_max
    and the survival P(X > x_max).

    Erlang mixing gives the NBM law of ``mix.as_nbm()``, atomic mixing a closed
    form; Pareto and lognormal mixing take all of them in one batched G10/K21
    quadrature, certified to relative tolerance 1e-10 (:class:`QuadratureError`
    if not).
    """
    spec, atoms = mix.as_nbm(), _atoms(mix)
    if spec is not None:
        return _nbm_vector(spec, x_max)
    x = np.arange(x_max + 1.0)
    if atoms is not None:
        rates, masses = atoms
        return masses @ np.exp(_poisson_logpmf(rates[:, None], x)), _mp_sf(mix, x_max)
    out = _poisson_gamma_quad(mix, np.append(x, x_max), [mix._pdf] * x.size + [mix.sf])
    return out[:-1], float(out[-1])


def mp_claims_pmf(
    mix: MixingDistribution,
    x_max: int | None = None,
    tail_tol: float = 1e-12,
) -> DiscretePmf:
    """Materialize the mixed Poisson claim law as a DiscretePmf.

    The vector covers 0..x_max, or without ``x_max`` runs to the first
    x >= 64 with P(X > x) < ``tail_tol``; the declared tail is the certified
    P(X > x_max).  Pareto/lognormal mixing costs one quadrature per point,
    run in batches of 64 integrals.
    """
    mean = mix.mean
    if not math.isfinite(mean):
        raise ValueError("mixing law must have a finite mean")
    return _claims(partial(_mp_vector, mix), partial(_mp_sf, mix), mean, x_max, tail_tol)
