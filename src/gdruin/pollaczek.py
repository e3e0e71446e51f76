"""Ruin probabilities as a geometric compound of ladder heights.

The maximal aggregate loss decomposes into a Geometric(1 - mu) number of
independent ladder heights, each with the equilibrium law of the claims.
That gives the series

    psi(u) = (1 - mu) sum_{k>=1} mu^k P(Y*_1 + ... + Y*_k >= u)

used here as an independent oracle against the forward recursion.  Only the
convolution values on 0..u-1 matter for a fixed u, so the cdf powers are
built on that window; truncating the series index at k_cut leaves a
remainder below mu^(k_cut+1)/(1-mu), which is pushed under ``tail_tol``.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DiscretePmf, _whole_number

__all__ = ["psi_pk"]


def psi_pk(claims: DiscretePmf, u: int, tail_tol: float = 1e-10) -> float:
    """Evaluate the geometric compound series at surplus u.

    The result is exact within the window (convolutions on 0..u-1 involve no
    truncation) except for the series cut, whose remainder is below
    ``tail_tol`` (the CLI passes 1e-12).  The accuracy is absolute, not
    relative: each term is a complement 1 - P(Y*_1 + ... + Y*_k <= u - 1),
    which carries a rounding error near 1e-16 however small psi(u) is.  Once
    psi(u) is below about 1e-15 the value is rounding noise and can be
    negative; `psi_recursion` keeps relative accuracy there.  Needs mean < 1
    and, for u >= 1, stored claim support through u - 1.
    """
    mu = claims.mean
    if not 0.0 < mu < 1.0:
        raise ValueError(f"series requires 0 < mean < 1, got {mu}")
    u = _whole_number(u, "u")
    if u == 0:
        return mu
    if claims.tail_mass > 0.0 and claims.support_max < u - 1:
        raise ValueError(
            f"claim support ends at {claims.support_max}; need survival through {u - 1}"
        )
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")

    # mu^(k_cut+1)/(1-mu) < tail_tol
    k_cut = max(1, math.ceil(math.log(tail_tol * (1.0 - mu)) / math.log(mu)))
    # the ladder-height pmf P(Y > y) / mu on the window 0..u-1; past a support with
    # zero tail it is 0
    step = claims.sf(np.arange(u)) / mu
    conv = step
    terms = []
    for k in range(1, k_cut + 1):
        if k > 1:
            conv = np.convolve(conv, step)[:u]  # the k-fold sum's pmf on the window
        # its cdf at u - 1: a running sum, whose rounding differs from a pairwise sum
        terms.append(mu ** k * (1.0 - np.cumsum(conv)[-1]))
    return (1.0 - mu) * math.fsum(terms)

