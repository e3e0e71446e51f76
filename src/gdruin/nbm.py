"""Ruin probabilities for negative binomial mixture claims.

For claims with an NBM(pi, p) law the ruin probability has a closed series
representation: with Z_u ~ NegBin(u, 1-p),

    psi(u) = sum_{k>=0} Cbar_k nb(u, 1-p)(k) = E[ Cbar_{Z_u} ],   u >= 1,

where the coefficients solve the renewal equation

    Cbar_0 = E(N) (1-p)/p
    Cbar_k = Cbar_0 [ sum_{i=1}^{k} f_Ne(i) Cbar_{k-i} + Fbar_Ne(k) ]

driven by the equilibrium weights f_Ne(i) = Fbar_N(i-1)/E(N).  The
semi-relaxed solver in `renewal` takes the raw survival P(N > j) and divides
by its sum once, in extended precision, so Fbar_Ne(k) is exactly zero past
the last weight and Cbar keeps its relative accuracy deep in the tail.  It
costs O(K log^2 K) for K terms.  The sequence equals (1-rho) Fbar_{N*}(k) for
a compound truncated-geometric N*, which is exposed separately as a
cross-check (built by a direct Panjer loop).

The series is summed over one window, k = 0..k_hi, with k_hi the last
index whose NegBin(u, 1-p) mass is above a floor.  `psi_nbm` takes the floor
that leaves at most 1e-12 of NegBin mass past k_hi; method 1 in
`mixed_poisson` is the same series at p_n = n/(n+1) with grid coefficients,
and sums it over the same window at its pmf floor.  The window is the log
kernel over 0..top, its log Gamma values sliced from the shared table in
`distributions`, exponentiated in place (its left tail, where the masses
underflow, set to 0.0); k_hi is looked for in the last probe step before
top, where the mass crosses the floor.  Both run in `_psi_series`, whose
`_series` sums in dot products of 8,192 terms that the BLAS never splits
over threads, so their last bits do not depend on the thread count.

Coefficient tables are cached per spec in the package's one table cache
(`renewal.TableCache`), beside the mixed Poisson grids, and extended in
place in quarter octaves, to at most 1.25 times the terms read, so repeated
psi queries at different surpluses share one table.  Its record is
`renewal.CoefficientSeq`, as for the grids: ``cbar_n``, a view of the whole
table whose first term is exactly Cbar_0 (read as psi(0)), ``grid_points``,
here len(spec.weights), and ``renewal``, the solver that built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .distributions import NbmSpec, _nb_logpmf, _whole_number
from .renewal import CoefficientSeq, Weights, _tables

__all__ = [
    "CoefficientSeq",
    "NStarSeq",
    "cbar_sequence",
    "nstar_sequence",
    "psi_nbm",
    "compound_geo_zero_mass",
]

# Neglected NegBin(u, 1-p) tail mass in the psi series.
_SERIES_TOL = 1e-12
# Points per probe call while a series window looks for its floor.
_PROBES = 16
# exp of a log mass below this is exactly 0.0: it is 4.9 below -745.13, where
# exp starts to round to 0.0.
_UNDERFLOW = -750.0
# Terms per dot product of a series sum; below the 10,000 terms past which
# OpenBLAS splits a dot product over threads.
_CHUNK = 1 << 13


def cbar_sequence(spec: NbmSpec, k_max: int) -> CoefficientSeq:
    """Coefficients Cbar_0..Cbar_k_max, at least, for the given mixture.

    The record is the spec's cached one: ``cbar_n`` views the whole table, at
    least k_max + 1 terms, and a request within the table returns the same
    record.  Requires the net profit condition E(N)(1-p)/p < 1.
    """
    k_max = _whole_number(k_max, "k_max")
    return _tables.get(
        spec, k_max, spec.claim_mean, lambda: (Weights(spec.weight_survival()), len(spec.weights))
    )


@dataclass(frozen=True, eq=False)
class NStarSeq:
    """Law of N* = N_1 + ... + N_M with M truncated geometric of parameter rho."""

    f_nstar: np.ndarray
    fbar_nstar: np.ndarray


def nstar_sequence(pi_e: Sequence[float], rho: float, k_max: int) -> NStarSeq:
    """Panjer-style compounding of the weight law pi_e over a TGeometric(rho) count.

    ``f_nstar[k]`` and ``fbar_nstar[k]`` are the mass and survival at k;
    index 0 carries f(0) = 0 and survival 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    k_max = _whole_number(k_max, "k_max")
    fn = np.zeros(k_max + 1)
    w = np.asarray(pi_e, dtype=float)
    m = min(k_max, w.size)
    fn[1 : m + 1] = w[:m]
    # survival of the base law: P(N > k), including mass beyond the stored span
    fbar_n = np.append(np.cumsum(fn[::-1])[::-1][1:], 0.0)
    fbar_n = fbar_n + max(0.0, 1.0 - math.fsum(fn.tolist()))

    f_star = np.zeros(k_max + 1)
    fbar_star = np.empty(k_max + 1)
    fbar_star[0] = 1.0
    for k in range(1, k_max + 1):
        conv_f = float(np.dot(fn[1:k], f_star[1:k][::-1]))
        f_star[k] = (1.0 - rho) * conv_f + rho * fn[k]
        conv_s = float(np.dot(fn[1 : k + 1], fbar_star[:k][::-1]))
        fbar_star[k] = (1.0 - rho) * conv_s + fbar_n[k]
    return NStarSeq(f_nstar=f_star, fbar_nstar=fbar_star)


def compound_geo_zero_mass(pi: Sequence[float], p: float, rho: float) -> float:
    """P(S = 0) for S an NBM(pi*, p) compound: rho G_N(p) / (1 - (1-rho) G_N(p))."""
    g = math.fsum(q * p ** (i + 1) for i, q in enumerate(pi))
    return rho * g / (1.0 - (1.0 - rho) * g)


# -- psi evaluation ------------------------------------------------------------


def _series_step(u: int, q: float) -> tuple[int, int]:
    """The mode of NegBin(u, q), (u-1)(1-q)/q rounded down, and the probe step floor(sigma) + 1."""
    odds = (1.0 - q) / q
    return int((u - 1) * odds), int(math.sqrt(u * odds / q)) + 1


def _series_window(u: int, q: float, floor: float) -> np.ndarray:
    """NegBin(u, q) masses on 0..k_hi, k_hi the last index whose mass exceeds ``floor``.

    NegBin(u, q) is unimodal, so past the mode a point at or below the floor bounds
    every later one: top is the first of mode + sigma, mode + 2 sigma, ... at or below
    the floor.  The masses past the mode fall to 0 and the floor is positive, so the
    probes need no cap.  The log pmf is evaluated once on 0..top and exponentiated in
    place.  Left of the mode it rises, with steps far above its rounding wherever it
    is below `_UNDERFLOW`, so a bisection finds where it passes that, and the masses
    before are set to 0.0, which is what exp gives there, by numpy's slow underflow
    path.  The probe before top was above the floor (unless top is the first), so k_hi
    is looked for in the last step before top, and in the whole window only when that
    step holds no mass above the floor.  The array is empty when no mass exceeds the
    floor.
    """
    mode, step = _series_step(u, q)
    j = 1
    while True:
        probes = mode + step * np.arange(j, j + _PROBES, dtype=float)
        past = np.flatnonzero(np.exp(_nb_logpmf(float(u), q, probes)) <= floor)
        if past.size:
            break
        j += _PROBES
    top = int(probes[past[0]])
    pmf = _nb_logpmf(float(u), q, range(top + 1))
    start = int(np.searchsorted(pmf[:mode], _UNDERFLOW))
    pmf[:start] = 0.0
    np.exp(pmf[start:], out=pmf[start:])
    lo = max(top - step, 0)
    above = np.flatnonzero(pmf[lo:] > floor)
    if not above.size:
        lo, above = 0, np.flatnonzero(pmf > floor)
    return pmf[: lo + above[-1] + 1] if above.size else pmf[:0]


def _series(table: np.ndarray, pmf: np.ndarray) -> float:
    """The series sum_k table[k] pmf[k] over the window, k < pmf.size.

    One dot product over a long window would be split over threads by the BLAS,
    which then sums it in another order, so its last bits would depend on the
    thread count.  Here each whole chunk of `_CHUNK` terms is one single-threaded
    dot product, all of them in one stacked matmul, the rest is one more, and
    their sum runs in an order set by the window's length alone.
    """
    n = pmf.size
    whole = n - n % _CHUNK
    total = np.dot(table[whole:n], pmf[whole:])
    if whole:
        chunks = np.matmul(table[:whole].reshape(-1, 1, _CHUNK), pmf[:whole].reshape(-1, _CHUNK, 1))
        total += chunks.sum()
    return float(total)


def _certified_window(u: int, q: float, p: float, tol: float) -> np.ndarray:
    """NegBin(u, q) masses on 0..k_hi, leaving out at most ``tol`` of mass past k_hi.

    Past x0 = mode + sigma the mass ratio r(x) = (x+u)/(x+1) p, p = 1 - q, falls,
    so the masses past a k_hi >= x0 sum to at most floor / (1 - r(x0)), and the
    floor tol (1 - r(x0)) leaves out at most tol.  p comes with q so that each
    caller keeps its own rounding of the pair.
    """
    mode, step = _series_step(u, q)
    x0 = mode + step
    pmf = _series_window(u, q, tol * (1.0 - (x0 + u) / (x0 + 1.0) * p))
    if pmf.size - 1 < x0:
        raise RuntimeError(
            f"NegBin({u}, {q}) window ends at {pmf.size - 1}, before {x0}, where its "
            f"tail bound starts; the tail past it is not certified below {tol:.0e}"
        )
    return pmf


def _psi_series(table, u: int, window) -> float:
    """psi(u), u whole: the first term of ``table(0)`` at u = 0, else the sum of
    ``window()``, NegBin masses on 0..k_hi, against the record ``table(k_hi)``."""
    if u == 0:
        return float(table(0).cbar_n[0])
    pmf = window()
    return _series(table(pmf.size - 1).cbar_n, pmf)


def psi_nbm(spec: NbmSpec, u: int) -> float:
    """Ruin probability at integer surplus u for NBM(pi, p) claims.

    The series runs over k = 0..k_hi, the window of NegBin(u, 1-p) masses above
    a floor that leaves out at most 1e-12 of NegBin mass (`_certified_window`).
    """
    u = _whole_number(u, "u")
    window = partial(_certified_window, u, 1.0 - spec.p, spec.p, _SERIES_TOL)
    return _psi_series(lambda k: cbar_sequence(spec, k), u, window)
