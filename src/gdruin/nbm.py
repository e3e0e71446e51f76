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
and sums it over the same window at its pmf floor.

Coefficient tables are cached per spec and extended in place in quarter
octaves, to at most 1.25 times the terms read, so repeated psi queries at
different surpluses share one table; the cache keeps the tables of the 8
most recently requested specs (`renewal.TableCache`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .distributions import NbmSpec, _nb_logpmf, _whole_number
from .renewal import RenewalSolver, TableCache, Weights

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


@dataclass(frozen=True, eq=False)
class CoefficientSeq:
    """Cbar coefficients of one mixture spec, with the solver that built them.

    ``cbar`` is a read-only view of the spec's cached table.  The equilibrium
    weights f_Ne(i) and their tails Fbar_Ne(k) are ``renewal.lags`` and
    ``renewal.survival``.
    """

    source: NbmSpec
    cbar: np.ndarray
    rho: float
    renewal: RenewalSolver = field(repr=False)

    @property
    def c0(self) -> float:
        return float(self.cbar[0])


def _table(spec: NbmSpec):
    """Renewal solver for the spec's coefficients, and the wrapper of its views."""
    c0 = spec.claim_mean
    if not 0.0 < c0 < 1.0:
        raise ValueError(f"net profit condition requires E(N)(1-p)/p < 1, got {c0}")
    solver = RenewalSolver(c0, Weights(spec.weight_survival()[:-1]))

    def wrap(cbar: np.ndarray) -> CoefficientSeq:
        return CoefficientSeq(source=spec, cbar=cbar, rho=1.0 - c0, renewal=solver)

    return solver, wrap


_coeff_cache = TableCache()


def cbar_sequence(spec: NbmSpec, k_max: int) -> CoefficientSeq:
    """Coefficients Cbar_0..Cbar_k_max for the given mixture, as a read-only array.

    The array is a view of the spec's cached table, which grows in place.
    Requires the net profit condition E(N)(1-p)/p < 1.
    """
    k_max = _whole_number(k_max, "k_max")
    seq = _coeff_cache.get(spec, k_max, lambda: _table(spec))
    return replace(seq, cbar=seq.cbar[: k_max + 1])


@dataclass(frozen=True, eq=False)
class NStarSeq:
    """Law of N* = N_1 + ... + N_M with M truncated geometric of parameter rho."""

    f_nstar: np.ndarray
    fbar_nstar: np.ndarray
    rho: float


def nstar_sequence(pi_e: Sequence[float], rho: float, k_max: int) -> NStarSeq:
    """Panjer-style compounding of the weight law pi_e over a TGeometric(rho) count.

    ``f_nstar[k]`` and ``fbar_nstar[k]`` are the mass and survival at k;
    index 0 carries f(0) = 0 and survival 1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
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
    return NStarSeq(f_nstar=f_star, fbar_nstar=fbar_star, rho=rho)


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
    the floor, and the pmf is evaluated once on 0..top.  The masses past the mode fall
    to 0 and the floor is positive, so the probes need no cap.  The array is empty
    when no mass exceeds the floor.
    """
    mode, step = _series_step(u, q)
    j = 1
    while True:
        probes = mode + step * np.arange(j, j + _PROBES, dtype=float)
        past = np.flatnonzero(np.exp(_nb_logpmf(float(u), q, probes)) <= floor)
        if past.size:
            break
        j += _PROBES
    pmf = np.exp(_nb_logpmf(float(u), q, np.arange(probes[past[0]] + 1.0)))
    above = np.flatnonzero(pmf > floor)
    return pmf[: above[-1] + 1] if above.size else pmf[:0]


def psi_nbm(spec: NbmSpec, u: int) -> float:
    """Ruin probability at integer surplus u for NBM(pi, p) claims.

    The series runs over k = 0..k_hi, the window of NegBin(u, 1-p) masses above a
    floor.  Past x0 = mode + sigma the mass ratio r(x) = (x+u)/(x+1) p falls, so
    the masses past a k_hi >= x0 sum to at most floor / (1 - r(x0)), and the
    floor 1e-12 (1 - r(x0)) leaves out at most 1e-12 of NegBin mass.
    """
    u = _whole_number(u, "u")
    c0 = spec.claim_mean
    if not 0.0 < c0 < 1.0:
        raise ValueError(f"net profit condition requires E(N)(1-p)/p < 1, got {c0}")
    if u == 0:
        return c0
    q = 1.0 - spec.p
    mode, step = _series_step(u, q)
    x0 = mode + step
    pmf = _series_window(u, q, _SERIES_TOL * (1.0 - (x0 + u) / (x0 + 1.0) * spec.p))
    k_hi = pmf.size - 1
    if k_hi < x0:
        raise RuntimeError(
            f"NegBin({u}, {q}) window ends at {k_hi}, before {x0}, where its tail "
            f"bound starts; the series tail past it is not certified below {_SERIES_TOL:.0e}"
        )
    return float(np.dot(cbar_sequence(spec, k_hi).cbar, pmf))
