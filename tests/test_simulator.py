"""Monte Carlo engine versus exact solvers and its own scalar twin.

All runs are seeded, so every assertion here is deterministic.  Statistical
agreement bands use the reported standard error with generous multiples;
the distributional law checks reuse the fixed seeds that the acceptance
suite runs at larger sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from gdruin import (
    MixingDistribution,
    NbmSpec,
    SimConfig,
    check_record_count_law,
    check_severity_law,
    geometric_pmf,
    mp_claims_pmf,
    nbm_claims_pmf,
    psi_geometric_closed,
    psi_recursion,
    simulate_paths,
    simulate_single,
)
from gdruin.simulate import _chi2_sf

GEO_CLAIMS = geometric_pmf(0.6, tail_tol=1e-30)
MP_CLAIMS = mp_claims_pmf(MixingDistribution.erlang(2, 3.0), tail_tol=1e-24)
NBM_CLAIMS = nbm_claims_pmf(NbmSpec((0.5, 0.5), 0.7), tail_tol=1e-24)
REPS = 60_000


# -- estimates against exact values ----------------------------------------------


@pytest.mark.parametrize("u", [0, 2, 6])
def test_estimate_brackets_geometric_closed_form(u):
    res = simulate_paths(SimConfig(claims=GEO_CLAIMS, replications=REPS, seed=0))
    ref = psi_geometric_closed(0.6, u)
    psi_hat, psi_se = res.psi_at(u)
    assert abs(psi_hat - ref) < 4.0 * psi_se
    assert res.identity_mismatches == 0
    assert res.censored == 0


def test_estimate_brackets_mixed_poisson_reference():
    res = simulate_paths(SimConfig(claims=MP_CLAIMS, replications=20_000, seed=11))
    ref = psi_recursion(MP_CLAIMS, 1)[1]
    psi_hat, psi_se = res.psi_at(1)
    assert abs(psi_hat - ref) < 4.0 * psi_se
    assert res.identity_mismatches == 0


def test_one_pass_brackets_the_recursion_at_every_u():
    res = simulate_paths(SimConfig(claims=MP_CLAIMS, replications=REPS, seed=0))
    ref = psi_recursion(MP_CLAIMS, 10)
    for u in range(11):
        psi_hat, psi_se = res.psi_at(u)
        assert abs(psi_hat - ref[u]) < 4.0 * psi_se, u


# -- one pass, every surplus level ---------------------------------------------------


@pytest.mark.parametrize("horizon", [100_000, 64])
@pytest.mark.parametrize(
    "claims", [GEO_CLAIMS, MP_CLAIMS, NBM_CLAIMS], ids=["geo", "mp", "nbm"]
)
def test_one_pass_equals_a_run_per_u(claims, horizon, monkeypatch):
    # 5000 replications span two chunks; at horizon 64 many paths are censored.  A run
    # takes no surplus, so a run meant for any one u is a rerun of the same pass.
    monkeypatch.setattr(SimConfig, "horizon", horizon)
    cfg = SimConfig(claims=claims, replications=5000, seed=5)
    res = simulate_paths(cfg)
    if horizon == 64:
        assert res.censored > 0
    assert res.level_hist.sum() == cfg.replications
    rerun = simulate_paths(SimConfig(claims=claims, replications=5000, seed=5))
    readings = [res.psi_at(u) for u in range(41)]
    assert readings == [rerun.psi_at(u) for u in range(41)]
    # one ruin count per u, nonincreasing in u, read as a binomial estimate
    counts = [round(psi * cfg.replications) for psi, _ in readings]
    assert counts[0] == cfg.replications - res.k_hist[0]
    assert counts[1:] == [int(res.level_hist[u:].sum()) for u in range(1, 41)]
    assert counts == sorted(counts, reverse=True)


def test_levels_past_the_deepest_path_read_zero():
    res = simulate_paths(SimConfig(claims=GEO_CLAIMS, replications=500, seed=3))
    deepest = res.level_hist.size - 1
    assert res.level_hist[deepest] > 0
    assert res.psi_at(deepest)[0] > 0.0
    assert res.psi_at(deepest + 1) == (0.0, 1.0 / 500)
    assert res.psi_at(10**6)[0] == 0.0
    with pytest.raises(ValueError):
        res.psi_at(-1)


def test_stop_bound_is_the_first_negligible_surplus():
    res = simulate_paths(SimConfig(claims=GEO_CLAIMS, replications=8, seed=5))
    psi = psi_recursion(GEO_CLAIMS, res.stop_bound)
    assert psi[res.stop_bound] < 1e-9
    assert psi[res.stop_bound - 1] >= 1e-9


def test_truncated_claims_are_rejected_for_stopping():
    shallow = geometric_pmf(0.6, tail_tol=1e-6)
    with pytest.raises(ValueError):
        simulate_paths(SimConfig(claims=shallow, replications=10, seed=0))


def test_net_profit_is_required():
    with pytest.raises(ValueError):
        SimConfig(claims=geometric_pmf(0.4), replications=10, seed=0)


# -- distributional laws -----------------------------------------------------------


@pytest.fixture(scope="module")
def geo_run():
    # fixed seed for determinism; the law itself was screened over many
    # seeds and at 1e6 paths, where all three p-values sit well above 0.1
    return simulate_paths(SimConfig(claims=GEO_CLAIMS, replications=100_000, seed=1))


def test_record_counts_follow_the_geometric_law(geo_run):
    report = check_record_count_law(geo_run, GEO_CLAIMS)
    assert report.p_value > 0.01


def test_record_severities_follow_the_ladder_law(geo_run):
    pooled, first = check_severity_law(geo_run, GEO_CLAIMS)
    assert pooled.p_value > 0.01
    assert first.p_value > 0.01


def test_every_path_satisfies_the_decomposition(geo_run):
    assert geo_run.identity_mismatches == 0


def test_mean_record_count_matches_geometric_mean(geo_run):
    mu = GEO_CLAIMS.mean
    counts = np.arange(geo_run.k_hist.size)
    k_bar = float(np.dot(counts, geo_run.k_hist)) / geo_run.k_hist.sum()
    # E(K) = mu / (1 - mu), with a wide deterministic band for 1e5 paths
    assert k_bar == pytest.approx(mu / (1.0 - mu), abs=0.05)


# -- scalar twin -------------------------------------------------------------------


def test_single_path_bookkeeping():
    rng = np.random.default_rng(42)
    seen_ruin = 0
    for _ in range(200):
        stats = simulate_single(GEO_CLAIMS, 2, rng)
        assert stats.record_count == len(stats.record_severities)
        assert all(s >= 0 for s in stats.record_severities)
        assert stats.record_times == sorted(stats.record_times)
        if stats.ruined:
            seen_ruin += 1
            assert stats.tau >= 1
            assert stats.severity >= 0
            # ruin means the walk reached u, so the records got there too
            assert sum(stats.record_severities) >= 2
    assert 0 < seen_ruin < 200


@pytest.mark.parametrize("u", [0, 1, 3, 6])
def test_first_passage_is_a_final_level_of_at_least_u(u):
    # the reading psi_at makes of one pass, checked on the walk that tracks passage at u
    rng = np.random.default_rng(u)
    for _ in range(150):
        stats = simulate_single(MP_CLAIMS, u, rng)
        reached = stats.record_count > 0 if u == 0 else sum(stats.record_severities) >= u
        assert stats.ruined == reached


def test_single_paths_agree_with_vector_engine_in_law():
    rng = np.random.default_rng(7)
    n = 3000
    ruined = sum(simulate_single(GEO_CLAIMS, 2, rng).ruined for _ in range(n))
    ref = psi_geometric_closed(0.6, 2)
    se = (ref * (1 - ref) / n) ** 0.5
    assert abs(ruined / n - ref) < 4.0 * se


# -- censoring ---------------------------------------------------------------------


def test_short_horizon_censors_unfinished_paths(monkeypatch):
    monkeypatch.setattr(SimConfig, "horizon", 64)
    res = simulate_paths(SimConfig(claims=GEO_CLAIMS, replications=500, seed=2))
    assert res.censored > 0
    assert res.psi_at(30)[0] == 0.0  # psi(30) ~ 4e-6; nothing ruins in 64 steps here


def test_chi_square_p_value_matches_scipy():
    """P(chi^2_dof > x) for dof = 1..200 and x in [0, 1000], against scipy.stats."""
    xs = np.r_[0.0, np.geomspace(1e-3, 1000.0, 60), np.linspace(5.0, 995.0, 34)]
    for dof in range(1, 201):
        got = np.array([_chi2_sf(x, dof) for x in xs])
        np.testing.assert_allclose(got, stats.chi2.sf(xs, dof), rtol=1e-12, atol=0.0)
