"""Grid approximation layer: closed forms, Riemann bounds, and a reference
reimplementation of the coefficient recursion in plain Python.

The exponential mixing law is the anchor: its grid coefficients have the
closed form (1/beta) c^k with c = exp(-beta/n) + (1 - exp(-beta/n))/beta,
and the true ruin probability is beta^-(u+1), so both the coefficients and
the convergence of the approximation can be checked without trusting any
package code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gdruin import (
    GridBudgetError,
    MixingDistribution,
    MpApproxConfig,
    RuinQuery,
    mp_claims_pmf,
    mp_coefficients,
    psi_mp_exact_reference,
    psi_mp_method1,
    psi_mp_method2,
    psi_pk,
    psi_recursion,
)
from gdruin import mixed_poisson
from gdruin.renewal import TableCache

ERLANG = MixingDistribution.erlang(2, 3.0)
PARETO = MixingDistribution.pareto(3.0, 1.0)
LOGNORMAL = MixingDistribution.lognormal(-1.0, 1.0)


# -- exponential mixing closed forms ----------------------------------------------


@pytest.mark.parametrize("n", [10, 500])
def test_exponential_coefficients_closed_form(n):
    beta = 2.0
    seq = mp_coefficients(MixingDistribution.exponential(beta), MpApproxConfig(n=n), 1000)
    c = math.exp(-beta / n) + (1.0 - math.exp(-beta / n)) / beta
    ref = (1.0 / beta) * c ** np.arange(1001)
    np.testing.assert_allclose(seq.cbar_n[:1001], ref, rtol=0, atol=1e-12)


def test_exponential_approximation_error_shrinks_with_n():
    beta = 2.0
    mix = MixingDistribution.exponential(beta)
    for u in (1, 4, 10):
        exact = beta ** -(u + 1)
        errs = [
            abs(psi_mp_method1(mix, u, MpApproxConfig(n=n, pmf_floor=1e-12)) - exact)
            for n in (10, 100, 500)
        ]
        assert errs[1] <= errs[0] + 1e-15
        assert errs[2] <= errs[1] + 1e-15
        assert errs[2] < 1e-3


# -- grid construction -------------------------------------------------------------


@pytest.mark.parametrize(
    "mix",
    [MixingDistribution.exponential(2.0), ERLANG, PARETO, LOGNORMAL],
    ids=["exp", "erlang", "pareto", "lognormal"],
)
def test_grid_sum_has_riemann_bounds(mix):
    """The survival grid sum is an upper Riemann sum of n * E(Lambda)."""
    n = 50
    seq = mp_coefficients(mix, MpApproxConfig(n=n), 10)
    lo = n * mix.mean
    assert lo - 1e-6 <= seq.grid_sum <= lo + 1.0


def test_grid_budget_guard():
    cfg = MpApproxConfig(n=500, grid_cap=10_000)
    with pytest.raises(GridBudgetError):
        mp_coefficients(PARETO, cfg, 10)


def test_heavy_tail_grid_certifies_truncation():
    # the default budget cannot resolve the Pareto tail to grid_tol, but the
    # cap is accepted because the leftover survival is pointwise negligible
    seq = mp_coefficients(PARETO, MpApproxConfig(n=500), 10)
    assert seq.grid_points == 2_000_001
    assert seq.grid_residual_sf < 1e-9


def test_coefficients_match_plain_python_rebuild():
    """Same recursion, written naively with Fraction-free floats."""
    n = 10
    mix = ERLANG
    k_max = 300
    seq = mp_coefficients(mix, MpApproxConfig(n=n), k_max)

    js = np.arange(seq.grid_points, dtype=float)
    grid = [float(v) for v in np.asarray(mix.sf(js / n))]
    gsum = math.fsum(grid)
    elam = mix.mean
    cbar = [elam]
    for k in range(1, k_max + 1):
        conv = math.fsum(
            (grid[i - 1] / gsum) * cbar[k - i] for i in range(1, min(k, len(grid)) + 1)
        )
        tail = math.fsum(grid[k:]) / gsum if k < len(grid) else 0.0
        cbar.append(elam * (conv + tail))
    np.testing.assert_allclose(seq.cbar_n[: k_max + 1], cbar, rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("mix", [ERLANG, PARETO], ids=["erlang", "pareto"])
def test_coefficient_regrowth_is_deterministic(mix, monkeypatch):
    cfg = MpApproxConfig(n=500)
    top = 1 << 16

    def fresh_cache():
        monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())

    fresh_cache()
    at_once = mp_coefficients(mix, cfg, top - 1).cbar_n
    assert at_once.size == top
    fresh_cache()
    doubling = [mp_coefficients(mix, cfg, size - 1).cbar_n for size in 64 * 2 ** np.arange(11)]
    fresh_cache()
    sizes = [int(s) for s in np.random.default_rng(3).permutation(64 * 2 ** np.arange(11))]
    shuffled = [mp_coefficients(mix, cfg, size - 1).cbar_n for size in sizes]
    for cbar in doubling + shuffled:
        np.testing.assert_array_equal(cbar, at_once[: cbar.size])
    # cached evaluation stays stable when the table grows behind it
    before = psi_mp_method1(mix, 2, cfg)
    psi_mp_method1(mix, 200, cfg)
    assert psi_mp_method1(mix, 2, cfg) == before


# -- method 1 -----------------------------------------------------------------------


def test_method1_tracks_exact_reference():
    cfg = MpApproxConfig(n=500)
    exact = psi_mp_exact_reference(ERLANG, 10)
    for u in (0, 1, 5, 10):
        assert psi_mp_method1(ERLANG, u, cfg) == pytest.approx(exact[u], abs=5e-4)


def test_method1_u_zero_is_the_mixing_mean():
    for mix in (ERLANG, PARETO, LOGNORMAL):
        assert psi_mp_method1(mix, 0, MpApproxConfig(n=500)) == mix.mean


def test_method1_floor_only_trims_negligible_terms():
    coarse = psi_mp_method1(ERLANG, 5, MpApproxConfig(n=500, pmf_floor=1e-5))
    fine = psi_mp_method1(ERLANG, 5, MpApproxConfig(n=500, pmf_floor=1e-12))
    assert abs(coarse - fine) < 1e-4


def test_method1_rejects_hopeless_floor():
    with pytest.raises(ValueError):
        psi_mp_method1(ERLANG, 5, MpApproxConfig(n=500, pmf_floor=0.9))


# -- method 2 -----------------------------------------------------------------------


def test_method2_is_seed_reproducible():
    cfg = MpApproxConfig(n=500, m=1000, seed=7)
    a = psi_mp_method2(ERLANG, 3, cfg)
    b = psi_mp_method2(ERLANG, 3, cfg)
    assert a == b
    c = psi_mp_method2(ERLANG, 3, MpApproxConfig(n=500, m=1000, seed=8))
    assert a != c


def test_method2_u_zero_is_exact():
    est, se = psi_mp_method2(ERLANG, 0, MpApproxConfig(n=500, seed=1))
    assert est == ERLANG.mean
    assert se == 0.0


def test_method2_covers_the_poisson_case():
    mix = MixingDistribution.degenerate(0.6)
    exact = psi_mp_exact_reference(mix, 6)
    cfg = MpApproxConfig(n=500, m=2000, seed=3)
    for u in (1, 3, 6):
        est, se = psi_mp_method2(mix, u, cfg)
        assert se > 0.0
        assert abs(est - exact[u]) < 5.0 * se + 1e-3


# -- exact reference ---------------------------------------------------------------


def test_exact_reference_agrees_with_series_evaluation():
    # quadrature-built masses are certified to ~1e-10 each; the ladder powers
    # amplify that claim-level noise by about the expected record count, so
    # the two solvers can only be expected to meet at a few units of 1e-8
    claims = mp_claims_pmf(LOGNORMAL, tail_tol=1e-13)
    psi_ref = psi_mp_exact_reference(LOGNORMAL, 8)
    for u in range(9):
        assert psi_pk(claims, u) == pytest.approx(psi_ref[u], abs=5e-8)


def test_exact_reference_windowed_claims_match_full_vector():
    # the reference only materializes masses up to u_max; the full-support
    # recursion must produce identical numbers on that window
    full = psi_recursion(
        RuinQuery(claims=mp_claims_pmf(ERLANG, tail_tol=1e-16), u_max=10)
    )
    np.testing.assert_allclose(
        psi_mp_exact_reference(ERLANG, 10), full, rtol=0, atol=1e-12
    )
