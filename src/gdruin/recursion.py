"""Exact ruin probabilities from the discrete Pollaczek-Khinchine formula.

The surplus process is U(t) = u + t - S(t) with iid integer claims, one unit
of premium per period, and ruin at the first t >= 1 with U(t) <= 0.  Under
the net profit condition E(Y) < 1 the ruin probabilities satisfy

    psi(0)   = E(Y)
    psi(u+1) = ( psi(u) - sum_{y=1}^{u} f(y) psi(u+1-y) - P(Y > u) ) / f(0).

Summed by parts this is the ladder form, with d = E(Y) - 1 + f(0) and
g(y) = P(Y > y) / d: psi(u+1) = (d / f(0)) (sum_{y=1}^{u} g(y) psi(u+1-y)
+ sum_{y>u} g(y)), a renewal equation `renewal.RenewalSolver` solves in
O(u log^2 u) from the raw survival P(Y > y), whose sum is d.  Every term is
nonnegative, so psi keeps its relative accuracy however small it gets; the
identity above, checked relative to its terms, certifies the result.

A compound binomial variant (claims arrive with probability p per period,
strictly positive claim sizes) is handled by converting to an equivalent
all-periods claim law.
"""

from __future__ import annotations

import numpy as np

from .distributions import DiscretePmf, _whole_number
from .renewal import RenewalSolver, Weights

__all__ = ["psi_recursion", "psi_geometric_closed", "convert_cb_to_gd"]

# Relative residual beyond this means the recursion output cannot be trusted.
_RESIDUAL_TOL = 1e-10
# Relative rounding of the mean; the claim tail it implies is zero below it.
_MEAN_ROUNDING = 1e-14


def psi_recursion(claims: DiscretePmf, u_max: int) -> np.ndarray:
    """Ruin probabilities psi(0..u_max), to relative accuracy.

    ``u_max`` is a nonnegative integer.  Requirements on the claim law:
    f(0) > 0, mean < 1, and stored support through u_max - 1 so every
    survival value the ladder form reads is stored rather than bounded by the
    declared tail.
    """
    u_max = _whole_number(u_max, "u_max")
    solver = _ladder(claims)
    if u_max >= 1 and claims.tail_mass > 0.0 and claims.support_max < u_max - 1:
        # with zero declared tail the stored survivals are exact at any depth
        raise ValueError(
            "claim support ends at "
            f"{claims.support_max} but survival values through {u_max - 1} are needed; "
            "rebuild the claims with a smaller tail tolerance"
        )
    return _psi(claims, solver, u_max)


def _ladder(claims: DiscretePmf) -> RenewalSolver | None:
    """Solver whose terms are psi(1), psi(2), ...; None when d = 0, where they vanish.

    The weights P(Y > y) past the support S sum to E[(Y - S - 1)+], which only
    the mean supplies: E(Y) - 1 + f(0) - sum_{y=1}^{S} P(Y > y), in extended
    precision, and dropped as rounding below _MEAN_ROUNDING E(Y).
    """
    f0 = claims.f(0)
    if f0 <= 0.0:
        raise ValueError("recursion needs f(0) > 0; shift or convert the claim law")
    mu = claims.mean
    if not mu < 1.0:
        raise ValueError(f"net profit condition requires mean < 1, got {mu}")
    sf = claims.survival[1:]
    beyond = np.longdouble(0.0)
    if claims.tail_mass > 0.0:
        rest = np.longdouble(mu) - 1 + f0 - np.sum(sf, dtype=np.longdouble)
        beyond = rest if rest > _MEAN_ROUNDING * mu else beyond
    weights = Weights(sf, beyond)
    total = float(weights.tail(0))
    if total == 0.0:
        return None
    return RenewalSolver(total / f0, weights)


def _psi(claims: DiscretePmf, solver: RenewalSolver | None, u_max: int) -> np.ndarray:
    """psi(0..u_max) from the ladder solver, extended in place, and certified."""
    psi = np.zeros(u_max + 1)
    psi[0] = claims.mean
    if solver is not None:
        psi[1:] = solver.extend(u_max)
    _check_residual(psi, claims)
    if np.any(psi[1:] > psi[:-1] * (1.0 + 1e-12)):
        raise RuntimeError("recursion output is not nonincreasing")
    return psi


def _check_residual(psi: np.ndarray, claims: DiscretePmf) -> float:
    """Bound the defect of the forward identity at every step, in one pass; return the worst.

    The defect at u is f(0) psi(u+1) - psi(u) + P(Y > u) + sum_{y=1}^{min(u, S)}
    f(y) psi(u+1-y); for u = 1..u_max-1 the sums are one convolution.  Each
    defect is taken relative to the sum of its terms' absolute values, so the
    check keeps its power where psi is tiny.
    """
    u_max = psi.size - 1
    if u_max == 0:
        return 0.0
    sf = claims.sf(np.arange(u_max))
    lead = claims.pmf[0] * psi[1:]
    defect = lead - psi[:-1] + sf
    scale = lead + psi[:-1] + sf
    if u_max > 1 and claims.support_max > 0:
        # np.convolve raises on an empty input
        conv = np.convolve(claims.pmf[1:u_max], psi[1:u_max])[: u_max - 1]
        defect[1:] += conv
        scale[1:] += conv
    worst = float(np.max(np.abs(defect) / np.maximum(scale, np.finfo(float).tiny)))
    if worst > _RESIDUAL_TOL:
        raise RuntimeError(
            f"recursion residual {worst:.3e} (relative) exceeds {_RESIDUAL_TOL:.0e}; "
            "claim law is too extreme for double precision"
        )
    return worst


def psi_geometric_closed(p: float, u: int) -> float:
    """Closed-form ruin probability for Geometric(p) claims.

    For p > 1/2 (mean below one) psi(u) = ((1-p)/p)^(u+1); the boundary
    p <= 1/2 means certain ruin.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if u < 0:
        raise ValueError("u must be nonnegative")
    if p <= 0.5:
        return 1.0
    return ((1.0 - p) / p) ** (u + 1)


# ---------------------------------------------------------------------------
# Compound binomial bridge
# ---------------------------------------------------------------------------


def convert_cb_to_gd(p: float, claim_pmf: DiscretePmf) -> DiscretePmf:
    """Fold the per-period claim probability p into a single per-period claim law.

    ``claim_pmf`` is the law g of the claim amount given one occurs; its
    mass at zero must be zero, otherwise p is not identifiable.  The result
    has f(0) = 1 - p and f(y) = p g(y) for y >= 1.  Ruin probabilities agree
    path by path, since the aggregate per-period claim streams are identical
    in law.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if claim_pmf.f(0) != 0.0:
        raise ValueError("conditional claim size must be strictly positive")
    pmf = p * claim_pmf.pmf
    pmf[0] = 1.0 - p
    return DiscretePmf(pmf, tail_mass=p * claim_pmf.tail_mass, mean=p * claim_pmf.mean)
