"""Ladder-height series evaluation cross-checked against the recursion.

The series and the forward recursion share nothing but the claim law, so
agreement at 1e-10 on assorted inputs validates both the window-truncated
convolutions and the geometric weighting.
"""

from __future__ import annotations

import numpy as np
import pytest

from gdruin import (
    DiscretePmf,
    MixingDistribution,
    NbmSpec,
    geometric_pmf,
    mp_claims_pmf,
    nbm_claims_pmf,
    psi_geometric_closed,
    psi_pk,
    psi_recursion,
)

CLAIM_CASES = [
    geometric_pmf(0.6, tail_tol=1e-30),
    nbm_claims_pmf(NbmSpec((0.5, 0.5), 0.7), tail_tol=1e-15),
    nbm_claims_pmf(NbmSpec((0.2, 0.3, 0.5), 0.8), tail_tol=1e-15),
    mp_claims_pmf(MixingDistribution.degenerate(0.5), tail_tol=1e-16),
    mp_claims_pmf(MixingDistribution.erlang(2, 3.0), tail_tol=1e-16),
    DiscretePmf([0.5, 0.2, 0.3]),  # u runs far past its support
]
CLAIM_IDS = ["geometric", "nbm-2", "nbm-3", "poisson", "mp-erlang", "short-support"]


@pytest.mark.parametrize("p", [0.55, 0.6, 0.75, 0.9])
def test_series_matches_geometric_closed_form(p):
    claims = geometric_pmf(p, tail_tol=1e-40)
    for u in range(31):
        ref = psi_geometric_closed(p, u)
        assert psi_pk(claims, u, tail_tol=1e-12) == pytest.approx(ref, abs=1e-11)


@pytest.mark.parametrize("claims", CLAIM_CASES, ids=CLAIM_IDS)
def test_series_matches_recursion(claims):
    psi = psi_recursion(claims, 20)
    for u in range(21):
        assert psi_pk(claims, u) == pytest.approx(psi[u], abs=1e-10)


def test_u_zero_is_the_mean():
    claims = nbm_claims_pmf(NbmSpec((0.4, 0.6), 0.75), tail_tol=1e-14)
    assert psi_pk(claims, 0) == claims.mean


def test_truncation_tolerance_is_conservative():
    claims = geometric_pmf(0.7, tail_tol=1e-30)
    loose = psi_pk(claims, 8, tail_tol=1e-6)
    tight = psi_pk(claims, 8, tail_tol=1e-14)
    assert abs(loose - tight) < 1e-6
    assert tight == pytest.approx(psi_geometric_closed(0.7, 8), abs=1e-13)


def test_rejects_support_shorter_than_surplus():
    claims = geometric_pmf(0.9, tail_tol=1e-6)  # truncated near x = 5
    with pytest.raises(ValueError):
        psi_pk(claims, 20)


def test_rejects_missing_net_profit():
    claims = geometric_pmf(0.4)  # mean 1.5
    with pytest.raises(ValueError):
        psi_pk(claims, 3)



@pytest.mark.parametrize("u", [2.5, -1])
def test_u_must_be_a_nonnegative_integer(u):
    with pytest.raises(ValueError, match="u must be a nonnegative integer"):
        psi_pk(geometric_pmf(0.75), u)


def test_integral_float_u_equals_int_u():
    claims = geometric_pmf(0.75)
    assert psi_pk(claims, 3.0) == psi_pk(claims, 3)
