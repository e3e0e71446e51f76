"""Coefficient recursion validated through the compound-law identity.

Two independent derivations must meet: the one-pass Cbar recursion, and the
survival function of a compound truncated-geometric count built by Panjer
convolution.  Cbar_k = Cbar_0 * Fbar_{N*}(k) ties them together term by term.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from gdruin import (
    NbmSpec,
    cbar_sequence,
    compound_geo_zero_mass,
    nbm_claims_pmf,
    nstar_sequence,
    psi_nbm,
    psi_pk,
    psi_recursion,
)
from gdruin import nbm
from gdruin.distributions import _nb_logpmf

SPECS = [
    NbmSpec((1.0,), 0.6),
    NbmSpec((0.5, 0.5), 0.7),
    NbmSpec((0.2, 0.3, 0.5), 0.8),
    NbmSpec((0.7, 0.1, 0.1, 0.1), 0.75),
]
SPEC_IDS = ["geo", "two", "three", "four"]


def _f_ne(seq, spec) -> np.ndarray:
    """The equilibrium weights f_Ne(1..K) the solver read for ``spec``."""
    return seq.renewal.lags(1, len(spec.weights) + 1)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cbar_equals_scaled_compound_survival(spec):
    k_max = 400
    seq = cbar_sequence(spec, k_max)
    ns = nstar_sequence(_f_ne(seq, spec), 1 - spec.claim_mean, k_max)
    np.testing.assert_allclose(
        seq.cbar_n[: k_max + 1], seq.cbar_n[0] * ns.fbar_nstar, rtol=1e-12, atol=1e-15
    )


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cbar_invariants(spec):
    seq = cbar_sequence(spec, 300)
    assert seq.cbar_n[0] == pytest.approx(spec.claim_mean, rel=1e-15)
    assert np.all(seq.cbar_n >= 0.0)
    assert np.all(np.diff(seq.cbar_n) <= 1e-15)
    assert seq.cbar_n[-1] < seq.cbar_n[0]


def test_nstar_is_a_probability_law():
    spec = NbmSpec((0.5, 0.5), 0.7)
    seq = cbar_sequence(spec, 600)
    ns = nstar_sequence(_f_ne(seq, spec), 1 - spec.claim_mean, 600)
    assert ns.f_nstar[0] == 0.0
    assert ns.fbar_nstar[0] == 1.0
    total = math.fsum(ns.f_nstar.tolist())
    assert total == pytest.approx(1.0, abs=1e-12)
    # survival must be the suffix sums of the mass function
    direct = 1.0 - np.cumsum(ns.f_nstar)
    np.testing.assert_allclose(ns.fbar_nstar, direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_zero_mass_closed_form_against_convolution(spec):
    """P(S = 0) closed form vs an explicit generating-function sum."""
    seq = cbar_sequence(spec, 800)
    ns = nstar_sequence(_f_ne(seq, spec), 1 - spec.claim_mean, 800)
    assert ns.fbar_nstar[-1] < 1e-14  # truncation safe for the sum below
    p = spec.p
    direct = math.fsum(
        f * p**k for k, f in enumerate(ns.f_nstar.tolist())
    )
    closed = compound_geo_zero_mass(_f_ne(seq, spec), p, 1 - spec.claim_mean)
    assert closed == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_maximum_reaches_one_with_pgf_complement(spec):
    """1 - psi(1) equals the zero mass of the all-time maximum by pgf algebra."""
    mu = spec.claim_mean
    p = spec.p
    f_ne = spec.weight_survival() / spec.weight_mean  # equilibrium weights on 1..K
    g_ne = math.fsum(q * p ** (i + 1) for i, q in enumerate(f_ne.tolist()))
    assert 1.0 - psi_nbm(spec, 1) == pytest.approx(
        (1.0 - mu) / (1.0 - mu * g_ne), rel=1e-11
    )


# -- agreement of all three solvers ---------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_psi_nbm_matches_recursion_and_series(spec):
    claims = nbm_claims_pmf(spec, tail_tol=1e-15)
    psi_r = psi_recursion(claims, 15)
    for u in range(16):
        a = psi_nbm(spec, u)
        assert a == pytest.approx(psi_r[u], abs=1e-10)
        assert a == pytest.approx(psi_pk(claims, u, tail_tol=1e-12), abs=1e-10)


def _short_sum_specs(seed: int, count: int, size: int) -> list[NbmSpec]:
    """Random specs of claim mean 0.7 whose floating equilibrium weights
    P(N > j-1) / E(N) sum below 1 by rounding, as the coefficient tables
    once rounded them."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        weights = rng.dirichlet(np.ones(size))
        en = float(np.dot(weights, np.arange(1, size + 1)))
        spec = NbmSpec(tuple(weights), en / (en + 0.7))
        if math.fsum((spec.weight_survival() / spec.weight_mean).tolist()) < 1.0:
            specs.append(spec)
    return specs


@pytest.mark.parametrize("spec", _short_sum_specs(7, 3, 4) + _short_sum_specs(8, 1, 30))
def test_psi_nbm_keeps_relative_accuracy_in_the_deep_tail(spec):
    # read as a tail past the last weight, that rounding floored psi_nbm near 2.6e-16;
    # the claims are stored through u = 400, so E reads no survival from the declared tail
    claims = nbm_claims_pmf(spec, x_max=400)
    psi = psi_recursion(claims, 400)
    assert psi[400] < 1e-70
    for u in (50, 100, 200, 400):
        assert psi_nbm(spec, u) == pytest.approx(psi[u], rel=1e-10, abs=0.0), u


@pytest.mark.parametrize("u", [1, 10, 100, 500])
@pytest.mark.parametrize("p", [0.505, 0.6, 0.75, 0.97])
def test_psi_nbm_window_leaves_out_at_most_1e12_of_negbin_mass(p, u, monkeypatch):
    spec = NbmSpec((1.0,), p)
    k_read = []

    def recorded(spec, k_max):
        k_read.append(k_max)
        return cbar_sequence(spec, k_max)

    monkeypatch.setattr(nbm, "cbar_sequence", recorded)
    got = psi_nbm(spec, u)
    (k_hi,) = k_read
    assert stats.nbinom.sf(k_hi, u, 1.0 - p) <= 1e-12
    # the full span runs past the mode to where the pmf has underflowed to 0
    end = 64
    while end < 4 * u * p / (1.0 - p) or np.exp(_nb_logpmf(float(u), 1.0 - p, float(end))) > 0.0:
        end *= 2
    pmf = np.exp(_nb_logpmf(float(u), 1.0 - p, np.arange(end + 1.0)))
    full = math.fsum((cbar_sequence(spec, end).cbar_n[: end + 1] * pmf).tolist())
    # Cbar is nonincreasing, so a left-out NegBin mass of 1e-12 moves psi by at most
    # 1e-12 relative: 3.0e-13 at p = 0.505, u = 1
    assert got == pytest.approx(full, rel=1e-12, abs=0.0)


def test_psi_nbm_refuses_a_window_short_of_its_tail_bound(monkeypatch):
    # at a tolerance of 1 the floor 1 - r(x0) = 0.097 is above the NegBin(10, 0.3) peak
    monkeypatch.setattr(nbm, "_SERIES_TOL", 1.0)
    with pytest.raises(RuntimeError, match="not certified"):
        psi_nbm(NbmSpec((0.5, 0.5), 0.7), 10)


def test_psi_nbm_invariants():
    spec = NbmSpec((0.3, 0.7), 0.65)
    vals = [psi_nbm(spec, u) for u in range(25)]
    assert vals[0] == spec.claim_mean
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_coefficient_regrowth_is_deterministic():
    spec = NbmSpec((0.5, 0.5), 0.7)
    short = cbar_sequence(spec, 64)
    long = cbar_sequence(spec, 2000)
    np.testing.assert_array_equal(short.cbar_n[:65], long.cbar_n[:65])
    # cached evaluation stays stable when the table regrows behind it
    before = psi_nbm(spec, 2)
    psi_nbm(spec, 40)
    assert psi_nbm(spec, 2) == before


def test_rejects_missing_net_profit():
    with pytest.raises(ValueError):
        psi_nbm(NbmSpec((1.0,), 0.4), 3)  # claim mean 1.5
    with pytest.raises(ValueError):
        cbar_sequence(NbmSpec((1.0,), 0.5), 10)  # claim mean exactly 1
