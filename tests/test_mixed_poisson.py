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
import sys
import threading
import tracemalloc

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
from gdruin.renewal import RenewalSolver, TableCache

ERLANG = MixingDistribution.erlang(2, 3.0)
PARETO = MixingDistribution.pareto(3.0, 1.0)
# past the 2M-point grid cap at n = 500 its survival is still 2.7e-8
HEAVY = MixingDistribution.pareto(2.1, 1.0)
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
    with pytest.raises(GridBudgetError):
        mp_coefficients(HEAVY, MpApproxConfig(n=500), 10)


def test_heavy_tail_grid_certifies_truncation():
    # the grid budget cannot resolve the Pareto tail to 1e-16, but the
    # cap is accepted because the leftover survival is pointwise negligible
    seq = mp_coefficients(PARETO, MpApproxConfig(n=500), 10)
    assert seq.grid_points == 2_000_001
    assert seq.grid_residual_sf < 1e-9
    assert seq.grid_residual_sf == PARETO.sf(2_000_000 / 500)


def test_grid_matches_mixing_survival():
    mix = ERLANG
    cfg = MpApproxConfig(n=10)
    assert cfg.p_n == pytest.approx(10 / 11.0, rel=1e-15)
    seq = mp_coefficients(mix, cfg, 0)
    sf = np.asarray(mix.sf(np.arange(seq.grid_points + 1, dtype=float) / cfg.n))
    # the grid stops at the first survival value below 1e-16
    assert sf[-1] < 1e-16 <= sf[-2]
    assert seq.grid_residual_sf == pytest.approx(sf[-2], rel=1e-14)
    assert seq.grid_sum == pytest.approx(math.fsum(sf[:-1].tolist()), rel=1e-14)
    np.testing.assert_allclose(seq.f_ne * seq.grid_sum, sf[:-1], rtol=1e-14)


def test_grid_budget_guard_past_the_first_chunk():
    # the cap check runs after the last chunk, not on the first one
    with pytest.raises(GridBudgetError, match="after 2000000 grid points"):
        mp_coefficients(HEAVY, MpApproxConfig(n=500), 0)


def test_mass_at_rate_zero_has_no_grid():
    with pytest.raises(ValueError):
        mp_coefficients(MixingDistribution.degenerate(0.0), MpApproxConfig(n=10), 0)
    # a point mass away from zero is fine: the grid is 1 up to the atom
    seq = mp_coefficients(MixingDistribution.degenerate(0.5), MpApproxConfig(n=10), 0)
    assert seq.grid_points == 5
    assert seq.grid_sum == 5.0
    np.testing.assert_array_equal(seq.f_ne, np.full(5, 0.2))


def _full_grid(mix: MixingDistribution, cfg: MpApproxConfig, size: int) -> np.ndarray:
    """The whole grid, evaluated afresh over the chunk extents the package uses.

    The survival functions are vectorized, so their rounding may depend on
    the extent of the array they are called on; the same extents give the
    same bits.
    """
    chunk = 1 << 16
    parts = [
        np.asarray(mix.sf(np.arange(j0, min(j0 + chunk, 2_000_001), dtype=float) / cfg.n))
        for j0 in range(0, size, chunk)
    ]
    return np.concatenate(parts)[:size]


def test_streamed_grid_matches_the_stored_grid(monkeypatch):
    """Past its first chunk the grid is evaluated again, not stored; the table,
    grown in steps or at once, equals the one a fully stored grid gives."""
    cfg = MpApproxConfig(n=500)
    top = 1 << 17
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    steps = [mp_coefficients(PARETO, cfg, size - 1).cbar_n for size in 64 * 2 ** np.arange(12)]
    assert steps[-1].size == top
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    seq = mp_coefficients(PARETO, cfg, top - 1)
    assert seq.cbar_n.size == top
    for cbar in steps:
        np.testing.assert_array_equal(cbar, seq.cbar_n[: cbar.size])

    grid = _full_grid(PARETO, cfg, seq.grid_points)
    stored = RenewalSolver(PARETO.mean, grid, normalize=True)
    assert stored.total == seq.grid_sum
    np.testing.assert_array_equal(stored.extend(top), seq.cbar_n)
    # windows inside, across and past the two chunks the table keeps
    for lo, hi in [(5, 700), (100_000, 200_000), (300_100, 300_400), (1_999_000, 2_000_002)]:
        np.testing.assert_array_equal(seq.renewal.lags(lo, hi), stored.lags(lo, hi))
        np.testing.assert_array_equal(seq.renewal.survival(lo, hi), stored.survival(lo, hi))
    np.testing.assert_array_equal(seq.f_ne, grid / seq.grid_sum)
    ld = grid.astype(np.longdouble)
    suffix = np.append(np.cumsum(ld[::-1])[::-1] / ld.sum(), 0.0).astype(float)
    assert seq.fbar_ne[-1] == 0.0
    np.testing.assert_allclose(seq.fbar_ne, suffix, rtol=1e-15, atol=0.0)


def test_heavy_tail_tables_do_not_hold_their_grids(monkeypatch):
    # a 2M-point grid is 16 MB; a table of 2^14 terms reads only its first
    # chunk, plus one extended-precision sum per 256 points
    cfg = MpApproxConfig(n=500)
    laws = [PARETO, MixingDistribution.pareto(3.5, 1.5), MixingDistribution.pareto(2.9, 1.2)]
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    tracemalloc.start()
    try:
        seqs = [mp_coefficients(mix, cfg, 1 << 14) for mix in laws]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(seq.grid_points == 2_000_001 for seq in seqs)
    assert held < 8e6, held


def test_grid_reads_during_growth_match_single_thread(monkeypatch):
    cfg = MpApproxConfig(n=500)
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    seq = mp_coefficients(PARETO, cfg, 64)
    f_ne, fbar_ne = seq.f_ne, seq.fbar_ne
    reads, errors = [], []
    started = threading.Event()

    def grow():
        try:
            started.set()
            mp_coefficients(PARETO, cfg, (1 << 17) - 1)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        grower = threading.Thread(target=grow)
        grower.start()
        started.wait(timeout=30)
        while grower.is_alive() or len(reads) < 2:
            reads.append((seq.f_ne, seq.fbar_ne))
        grower.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for f, fbar in reads:
        np.testing.assert_array_equal(f, f_ne)
        np.testing.assert_array_equal(fbar, fbar_ne)


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
