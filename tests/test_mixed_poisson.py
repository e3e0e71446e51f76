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
from scipy import integrate

from gdruin import (
    MixingDistribution,
    MpApproxConfig,
    NbmSpec,
    mp_claims_pmf,
    mp_coefficients,
    psi_mp_exact_reference,
    psi_mp_method1,
    psi_mp_method2,
    psi_nbm,
    psi_pk,
    psi_recursion,
)
from gdruin import mixed_poisson, nbm
from gdruin.distributions import _nb_logpmf
from gdruin.renewal import RenewalSolver, TableCache

ERLANG = MixingDistribution.erlang(2, 3.0)
PARETO = MixingDistribution.pareto(3.0, 1.0)
# two million grid points into the tail at n = 500 its survival is still 2.7e-8
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


def _direct_tail(mix: MixingDistribution, n: int, a: int, b: int) -> float:
    """sum_{j >= a} Fbar(j/n): a longdouble sum to b, then n int + Fbar/2 by quadrature."""
    js = np.arange(a, b, dtype=float)
    head = np.asarray(mix.sf(js / n)).astype(np.longdouble).sum()
    integral = integrate.quad(mix.sf, b / n, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return float(head + np.longdouble(n * integral + mix.sf(b / n) / 2.0))


# (law, n) pairs whose grid does not stop within its first 2^16 points
FAR = {
    "exponential": (MixingDistribution.exponential(2.4), 20_000),
    "erlang": (MixingDistribution.erlang(2, 3.0), 40_000),
    "erlang_mixture": (MixingDistribution.erlang_mixture((0.3, 0.3, 0.4), 3.5), 50_000),
    "pareto": (PARETO, 500),
    "heavy_pareto": (HEAVY, 500),
    "lognormal": (LOGNORMAL, 500),
    "wide_lognormal": (MixingDistribution.lognormal(math.log(0.85) - 0.72, 1.2), 500),
}


@pytest.mark.parametrize("name", list(FAR))
def test_grid_tail_matches_direct_sum(name):
    mix, n = FAR[name]
    for a in (1 << 15, 1 << 16):
        assert mix.grid_tail(a, n) == pytest.approx(
            _direct_tail(mix, n, a, 1 << 21), rel=1e-14, abs=0.0
        )


@pytest.mark.parametrize(
    "mix",
    [MixingDistribution.degenerate(0.5), MixingDistribution.from_cdf_table((0.1, 0.3, 0.77), (0.2, 0.5, 1.0))],
    ids=["degenerate", "cdf_table"],
)
def test_grid_tail_of_an_atomic_law_is_the_finite_sum(mix):
    n = 1 << 18  # the grid runs past its first 2^16 points
    sf = np.asarray(mix.sf(np.arange(n, dtype=float) / n))
    assert sf[: 1 << 16].min() > 0.0 and sf[-1] == 0.0
    for a in (1, 100, 1 << 16, 1 << 17, n):
        assert mix.grid_tail(a, n) == math.fsum(sf[a:].tolist())
    seq = mp_coefficients(mix, MpApproxConfig(n=n), 0)
    assert seq.grid_points == 1 << 16
    assert seq.grid_sum == math.fsum(sf.tolist())


def test_heavy_tail_n1_error_halves_per_doubling():
    # past two million points the grid is summed in closed form, so no law
    # is too heavy-tailed; N1 keeps its O(1/n) error on the heaviest one
    exact = psi_mp_exact_reference(HEAVY, 10)
    for u in (5, 10):
        errs = [
            psi_mp_method1(HEAVY, u, MpApproxConfig(n=n, pmf_floor=1e-12)) - exact[u]
            for n in (250, 500, 1000)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.9 < coarse / fine < 2.1, errs


def test_heavy_tail_grid_certifies_truncation():
    # the stored head of 2^16 points plus the closed-form sum past it is the
    # whole grid: two million points summed directly, plus their remainder
    seq = mp_coefficients(PARETO, MpApproxConfig(n=500), 10)
    assert seq.grid_points == 1 << 16
    assert seq.grid_sum == pytest.approx(
        _direct_tail(PARETO, 500, 0, 2_000_000), rel=1e-15, abs=0.0
    )


def test_grid_matches_mixing_survival():
    mix = ERLANG
    cfg = MpApproxConfig(n=10)
    seq = mp_coefficients(mix, cfg, 0)
    size = seq.grid_points
    sf = np.asarray(mix.sf(np.arange(size + 1, dtype=float) / cfg.n))
    # the grid stops at the first survival value below 1e-16
    assert sf[-1] < 1e-16 <= sf[-2]
    assert seq.grid_sum == pytest.approx(math.fsum(sf[:-1].tolist()), rel=1e-14)
    f_ne = seq.renewal.lags(0, size + 3)
    np.testing.assert_allclose(f_ne[1 : size + 1] * seq.grid_sum, sf[:-1], rtol=1e-14)
    assert f_ne[0] == f_ne[-2] == f_ne[-1] == 0.0
    assert seq.renewal.survival(size, size + 2).tolist() == [0.0, 0.0]


def test_heavy_tail_grid_reads_past_the_head():
    # single values past the stored head are the survival function itself,
    # and tails from there on are the rest of the infinite sum
    n = 500
    seq = mp_coefficients(HEAVY, MpApproxConfig(n=n), 0)
    assert seq.grid_points == 1 << 16
    total = _direct_tail(HEAVY, n, 0, 1 << 21)
    assert seq.grid_sum == pytest.approx(total, rel=1e-15, abs=0.0)
    for lo, hi in [(5, 700), (65_000, 66_000), (300_100, 300_400), (1_999_000, 2_000_002)]:
        js = np.arange(lo - 1, hi - 1, dtype=float)
        np.testing.assert_allclose(seq.renewal.lags(lo, hi), HEAVY.sf(js / n) / total, rtol=2e-15)
        fbar = seq.renewal.survival(lo, hi)
        assert fbar[0] == pytest.approx(
            _direct_tail(HEAVY, n, lo, 1 << 22) / total, rel=1e-14, abs=0.0
        )
        np.testing.assert_allclose(-np.diff(fbar), seq.renewal.lags(lo + 1, hi), rtol=1e-9)


def test_equal_laws_share_one_table():
    cfg = MpApproxConfig(n=50)
    general = MixingDistribution.erlang_mixture((0, 1), 3.0)
    assert mp_coefficients(ERLANG, cfg, 100) is mp_coefficients(general, cfg, 100)


def test_mass_at_rate_zero_has_no_grid():
    with pytest.raises(ValueError):
        mp_coefficients(MixingDistribution.degenerate(0.0), MpApproxConfig(n=10), 0)
    # a point mass away from zero is fine: the grid is 1 up to the atom
    seq = mp_coefficients(MixingDistribution.degenerate(0.5), MpApproxConfig(n=10), 0)
    assert seq.grid_points == 5
    assert seq.grid_sum == 5.0
    np.testing.assert_array_equal(seq.renewal.lags(1, 7), [0.2] * 5 + [0.0])


def test_streamed_grid_matches_the_stored_grid(monkeypatch):
    """Past its stored head the grid is evaluated on demand; the table, grown
    in steps or at once, is the same bit for bit, and so are the reads past
    the head that tables beyond 2^15 terms make."""
    cfg = MpApproxConfig(n=500)
    top = 1 << 17
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    grown = [mp_coefficients(PARETO, cfg, size - 1) for size in 64 * 2 ** np.arange(12)]
    assert grown[-1].cbar_n.size == top
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    seq = mp_coefficients(PARETO, cfg, top - 1)
    assert seq.cbar_n.size == top
    for step in grown:
        np.testing.assert_array_equal(step.cbar_n, seq.cbar_n[: step.cbar_n.size])
    head = 1 << 16
    assert seq.grid_points == head
    js = np.arange(2 * top, dtype=float)
    stored = PARETO.sf(js / cfg.n) / seq.grid_sum
    for lo, hi in [(5, 700), (head - 300, head + 300), (100_000, 2 * top)]:
        lags = seq.renewal.lags(lo, hi)
        np.testing.assert_array_equal(lags, grown[-1].renewal.lags(lo, hi))
        np.testing.assert_allclose(lags, stored[lo - 1 : hi - 1], rtol=5e-16, atol=0.0)
        np.testing.assert_array_equal(
            seq.renewal.survival(lo, hi), grown[-1].renewal.survival(lo, hi)
        )


def test_heavy_tail_tables_do_not_hold_their_grids(monkeypatch):
    # two million grid points would be 16 MB; a law stores only its first
    # 2^16, plus one extended-precision tail sum per 256 of them
    cfg = MpApproxConfig(n=500)
    laws = [PARETO, MixingDistribution.pareto(3.5, 1.5), MixingDistribution.pareto(2.9, 1.2)]
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    tracemalloc.start()
    try:
        seqs = [mp_coefficients(mix, cfg, 1 << 14) for mix in laws]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(seq.grid_points == 1 << 16 for seq in seqs)
    assert held < 8e6, held


def test_grid_head_is_evaluated_only_to_its_stop(monkeypatch):
    cfg = MpApproxConfig(n=500)
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    points = []  # the size of every array the survival is evaluated on
    sf = MixingDistribution.sf

    def counted(self, x):
        if np.ndim(x):
            points.append(np.size(x))
        return sf(self, x)

    monkeypatch.setattr(MixingDistribution, "sf", counted)
    seq = mp_coefficients(ERLANG, cfg, 0)
    assert 1024 < seq.grid_points < 1 << 15
    assert sum(points) <= 2 * seq.grid_points + 1024
    points.clear()
    seq = mp_coefficients(PARETO, cfg, 0)  # never below 1e-16 in the head
    assert seq.grid_points == 1 << 16
    assert sum(points) == 1 << 16


@pytest.mark.parametrize(
    "mix",
    [
        ERLANG,
        MixingDistribution.exponential(2.0),
        MixingDistribution.erlang_mixture((0.3, 0.3, 0.4), 3.5),
        PARETO,
        LOGNORMAL,
        MixingDistribution.degenerate(0.5),
    ],
    ids=["erlang", "exponential", "erlang_mixture", "pareto", "lognormal", "degenerate"],
)
def test_grid_head_pieces_equal_one_evaluation(mix):
    # the head is evaluated in doubling pieces; survival works element by
    # element, so the pieces are the whole head bit for bit
    n, head = 500, 1 << 16
    edges = [0] + [1024 << i for i in range(7)]
    pieces = [mix.sf(np.arange(lo, hi, dtype=float) / n) for lo, hi in zip(edges, edges[1:])]
    whole = mix.sf(np.arange(head, dtype=float) / n)
    np.testing.assert_array_equal(np.concatenate(pieces), whole)


def test_cache_keeps_the_eight_most_recently_requested_laws(monkeypatch):
    cfg = MpApproxConfig(n=50)
    cache = TableCache()
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", cache)
    builds = []
    table = mixed_poisson._table

    def counted(mix, n):
        builds.append(mix)
        return table(mix, n)

    monkeypatch.setattr(mixed_poisson, "_table", counted)
    laws = [MixingDistribution.exponential(1.5 + 0.1 * i) for i in range(20)]
    first = mp_coefficients(laws[0], cfg, 1000).cbar_n.tobytes()
    for mix in laws[1:]:
        mp_coefficients(mix, cfg, 1000)
    assert len(cache._entries) <= 8
    assert len(builds) == 20
    mp_coefficients(laws[12], cfg, 1000)  # one of the last eight: still cached
    assert len(builds) == 20
    again = mp_coefficients(laws[0], cfg, 1000)  # dropped: rebuilt, bit for bit
    assert len(builds) == 21
    assert again.cbar_n.tobytes() == first


def test_grid_reads_during_growth_match_single_thread(monkeypatch):
    cfg = MpApproxConfig(n=500)
    monkeypatch.setattr(mixed_poisson, "_coeff_cache", TableCache())
    seq = mp_coefficients(PARETO, cfg, 64)

    def read():  # across the stored head
        return seq.renewal.lags(60_000, 70_000), seq.renewal.survival(60_000, 70_000)

    f_ne, fbar_ne = read()
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
            reads.append(read())
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
    quarters = [q << e for e in range(4, 15) for q in (4, 5, 6, 7) if q << e <= top]
    fresh_cache()
    quartering = [mp_coefficients(mix, cfg, size - 1).cbar_n for size in quarters]
    assert [cbar.size for cbar in quartering] == quarters
    fresh_cache()
    sizes = [int(s) for s in np.random.default_rng(3).permutation(quarters)]
    shuffled = [mp_coefficients(mix, cfg, size - 1).cbar_n for size in sizes]
    for cbar in doubling + quartering + shuffled:
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


def _full_span_window(u, n, floor):
    """Reference window: the pmf on 0..end, end past the mode where the pmf has
    underflowed to 0, cut after its last mass above the floor."""
    q = 1.0 / (1.0 + n)
    end = max(64, 2 * u * n)
    while np.exp(_nb_logpmf(float(u), q, float(end))) > 0.0:
        end *= 2
    pmf = np.exp(_nb_logpmf(float(u), q, np.arange(end + 1.0)))
    above = np.flatnonzero(pmf > floor)
    return pmf[: above[-1] + 1] if above.size else pmf[:0]


@pytest.mark.parametrize("floor", [1e-5, 1e-9, 1e-13])
@pytest.mark.parametrize("n", [1, 10, 500, 1000])
@pytest.mark.parametrize("u", [1, 2, 10, 50, 500])
def test_series_window_matches_the_full_span(u, n, floor):
    ref = _full_span_window(u, n, floor)
    got = nbm._series_window(u, 1.0 / (1.0 + n), floor)
    assert got.size == ref.size  # the same k_hi
    np.testing.assert_array_equal(got, ref)


def test_method1_window_has_no_span_cap():
    # NegBin(1, 1/501) stays above 1e-13 well past mean + 12 sigma + 64, with 2e-6 of
    # its mass there
    cfg = MpApproxConfig(n=500, pmf_floor=1e-13)
    pmf = _full_span_window(1, cfg.n, cfg.pmf_floor)
    assert pmf.size - 1 > int(500 + 12.0 * math.sqrt(500 * 501.0)) + 64
    cbar = mp_coefficients(PARETO, cfg, pmf.size - 1).cbar_n[: pmf.size]
    ref = math.fsum((cbar * pmf).tolist())
    assert psi_mp_method1(PARETO, 1, cfg) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_series_window_raises_when_the_peak_is_below_the_floor():
    # the peak of NegBin(1000, 1/501) is about 2.5e-5: the window is empty and method 1 raises
    assert _full_span_window(1000, 500, 1e-4).size == 0
    assert nbm._series_window(1000, 1.0 / 501.0, 1e-4).size == 0
    with pytest.raises(ValueError, match="below pmf_floor"):
        psi_mp_method1(ERLANG, 1000, MpApproxConfig(n=500, pmf_floor=1e-4))


def test_series_window_evaluates_only_up_to_its_top(monkeypatch):
    points = []

    def counted(k, p, x):
        points.append(np.size(x))
        return _nb_logpmf(k, p, x)

    monkeypatch.setattr(nbm, "_nb_logpmf", counted)
    u, n = 500, 500
    k_hi = nbm._series_window(u, 1.0 / (1.0 + n), 1e-5).size - 1
    assert sum(points) <= k_hi + math.sqrt(u * n * (n + 1.0)) + 65


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


def _reference_draws(u, n, m, seed, rng_stream):
    """One inverse-cdf geometric draw per cell, cast and summed as integers."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rng_stream))))
    lq = math.log1p(-1.0 / (1.0 + n))
    total = np.zeros(m, dtype=np.int64)
    step = max(1, (1 << 22) // m)
    for done in range(0, u, step):
        unif = rng.random((m, min(step, u - done)))
        total += np.floor(np.log1p(-unif) / lq).astype(np.int64).sum(axis=1)
    return total


@pytest.mark.parametrize(
    "u, n, m",
    # m = 2^21 gives column blocks of 2, so u = 5 takes three
    [(1, 500, 1000), (500, 500, 1000), (10, 50, 7), (5, 500, 1 << 21)],
)
def test_negbin_draws_match_the_integer_reference(u, n, m):
    got = mixed_poisson._negbin_draws(u, n, m, 11, rng_stream=u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _reference_draws(u, n, m, 11, u))


# -- the surplus argument ------------------------------------------------------------

_NBM = NbmSpec((0.5, 0.5), 0.7)
_AT_U = {
    "method1": lambda u: psi_mp_method1(ERLANG, u, MpApproxConfig(n=500)),
    "method2": lambda u: psi_mp_method2(ERLANG, u, MpApproxConfig(n=500, seed=1)),
    "nbm": lambda u: psi_nbm(_NBM, u),
}


@pytest.mark.parametrize("u", [2.5, -1])
@pytest.mark.parametrize("name", list(_AT_U))
def test_u_must_be_a_nonnegative_integer(name, u):
    with pytest.raises(ValueError, match="u must be a nonnegative integer"):
        _AT_U[name](u)


@pytest.mark.parametrize("name", list(_AT_U))
def test_integral_float_u_equals_int_u(name):
    assert _AT_U[name](3.0) == _AT_U[name](3)


# -- exact reference ---------------------------------------------------------------


def test_exact_reference_agrees_with_series_evaluation():
    # quadrature-built masses are certified to ~1e-10 each; the ladder powers
    # amplify that claim-level noise by about the expected record count, so
    # the two solvers can only be expected to meet at a few units of 1e-8
    claims = mp_claims_pmf(LOGNORMAL, tail_tol=1e-13)
    psi_ref = psi_mp_exact_reference(LOGNORMAL, 8)
    for u in range(9):
        assert psi_pk(claims, u) == pytest.approx(psi_ref[u], abs=5e-8)


@pytest.mark.parametrize("u_max", [2.5, -1])
def test_exact_reference_u_max_must_be_a_nonnegative_integer(u_max):
    with pytest.raises(ValueError, match="u_max must be a nonnegative integer"):
        psi_mp_exact_reference(ERLANG, u_max)


def test_exact_reference_windowed_claims_match_full_vector():
    # the reference only materializes masses up to u_max; the full-support
    # recursion must produce identical numbers on that window
    full = psi_recursion(mp_claims_pmf(ERLANG, tail_tol=1e-16), 10)
    np.testing.assert_allclose(
        psi_mp_exact_reference(ERLANG, 10), full, rtol=0, atol=1e-12
    )
