"""The renewal solver against the direct loop it replaced, and its table cache.

``direct_nbm_cbar`` and ``direct_mp_cbar`` are the O(K min(K, J)) loops the
NBM and mixed Poisson layers ran before the solver existed: one np.dot per
coefficient, no FFT, no blocking.  The solver must meet them to 1e-12
relative on every coefficient the double range can hold with margin
(>= 1e-290), deep tails included.  ``direct_nbm_cbar`` normalizes the
survival P(N > j) by its exact (``math.fsum``) sum, so its equilibrium law
has no mass past the last weight.  ``direct_mp_cbar`` builds its own grid:
two million points, plus the remainder past them by quadrature, independent
of the package's closed forms.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest
from scipy import integrate

from gdruin import (
    MixingDistribution,
    MpApproxConfig,
    NbmSpec,
    cbar_sequence,
    mp_claims_pmf,
    mp_coefficients,
    psi_recursion,
)
from gdruin import mixed_poisson, renewal
from gdruin.recursion import _ladder
from gdruin.renewal import _B, RenewalSolver, TableCache, Weights

RTOL = 1e-12
FLOOR = 1e-290


def direct_nbm_cbar(spec: NbmSpec, k_max: int) -> np.ndarray:
    c0 = spec.claim_mean
    surv = spec.weight_survival()  # P(N > j), j = 0..K-1
    f_ne = surv / math.fsum(surv.tolist())  # f_ne[i-1] is the weight on i
    fbar = np.append(np.cumsum(f_ne[::-1])[::-1], 0.0)  # fbar[k] = P(Ne > k), k = 0..K
    kw = f_ne.size

    cbar = np.empty(k_max + 1)
    cbar[0] = c0
    for k in range(1, k_max + 1):
        idx = min(k, kw)
        conv = float(np.dot(f_ne[:idx], cbar[k - idx:k][::-1]))
        cbar[k] = c0 * (conv + float(fbar[min(k, kw)]))
    return cbar


def _grid(mix: MixingDistribution, n: int) -> tuple[np.ndarray, float]:
    """Fbar(j/n) from j = 0, and the sum of the values past them.

    The grid stops at its first value below 1e-16 when that lies within its
    first 2^16 points.  Otherwise it runs on: two million points, then
    n int_b^inf Fbar + Fbar(b)/2 past them, whose next Euler-Maclaurin term
    is below 1e-17 of the sum for every law tested here.
    """
    grid = np.asarray(mix.sf(np.arange(1 << 16, dtype=float) / n), dtype=float)
    below = np.flatnonzero(grid < 1e-16)
    if below.size:
        return grid[: below[0]], 0.0
    grid = np.asarray(mix.sf(np.arange(2_000_000, dtype=float) / n), dtype=float)
    b = grid.size / n
    integral = integrate.quad(mix.sf, b, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return grid, n * integral + mix.sf(b) / 2.0


def direct_mp_cbar(mix: MixingDistribution, n: int, k_max: int) -> np.ndarray:
    elam = mix.mean
    grid, rest = _grid(mix, n)
    j_max = grid.size - 1

    grid_ld = grid.astype(np.longdouble)
    gsum = grid_ld.sum() + np.longdouble(rest)

    kw = min(k_max, j_max + 1)  # stored equilibrium weights f_Ne(1..kw)
    f_ne = np.asarray(grid_ld[:kw] / gsum, dtype=float)

    fbar_ne = np.zeros(k_max + 1)
    top = min(k_max, j_max)
    # suffix[j] = sum_{l >= j} grid[l]; fbar_ne[k] = suffix[k]/gsum for k <= j_max
    suffix = np.cumsum(grid_ld[: top + 1][::-1])[::-1]
    suffix += grid_ld[top + 1 :].sum() + np.longdouble(rest)
    fbar_ne[: top + 1] = np.asarray(suffix / gsum, dtype=float)

    cbar = np.empty(k_max + 1)
    cbar[0] = elam
    for k in range(1, k_max + 1):
        idx = min(k, kw)
        conv = float(np.dot(f_ne[:idx], cbar[k - idx:k][::-1]))
        cbar[k] = elam * (conv + fbar_ne[k])
    return cbar


def assert_matches_direct(got: np.ndarray, ref: np.ndarray) -> None:
    assert got[0] == ref[0]
    live = ref >= FLOOR
    rel = np.abs(got[live] - ref[live]) / ref[live]
    assert rel.max() <= RTOL, (rel.max(), int(np.argmax(rel)))


def _seeded_laws() -> dict[str, MixingDistribution]:
    rng = np.random.default_rng(20261018)
    mean = float(rng.uniform(0.45, 0.85))
    shape = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(3))
    alpha = float(rng.uniform(2.8, 3.5))
    s = float(rng.uniform(0.5, 1.2))
    mix_mean = float(np.dot(weights, np.arange(1, 4)))
    return {
        "erlang": MixingDistribution.erlang(shape, shape / mean),
        "erlang_mixture": MixingDistribution.erlang_mixture(tuple(weights), mix_mean / mean),
        "pareto": MixingDistribution.pareto(alpha, mean * (alpha - 1.0)),
        "lognormal": MixingDistribution.lognormal(np.log(mean) - s * s / 2.0, s),
        "exponential": MixingDistribution.exponential(1.0 / mean),
    }


SEEDED = _seeded_laws()
# the paper's heavy law, whose grid a two-million-point cap would cut short:
# its Cbar_{0..2^15} would then be off by up to 2.6e-4 relative
SEEDED["pareto_3_1"] = MixingDistribution.pareto(3.0, 1.0)


@pytest.mark.parametrize("name", list(SEEDED))
def test_mp_solver_matches_direct_loop(name):
    mix = SEEDED[name]
    cfg = MpApproxConfig(n=500)
    k_max = (1 << 15) - 1
    seq = mp_coefficients(mix, cfg, k_max)
    if name.startswith("pareto"):
        assert seq.grid_points == 1 << 16
    ref = direct_mp_cbar(mix, cfg.n, k_max)
    assert_matches_direct(seq.cbar_n[: k_max + 1], ref)


DEEP = {
    # the paper's law: below 1e-40 by K = 2^17 on a 6.8k-point grid
    "erlang": MixingDistribution.erlang(2, 3.0),
    # on these two, FFT products without the local tilt are off by 3.6e-11
    # and 2.7e-6 relative once the coefficients fall below 1e-13
    "exponential": MixingDistribution.exponential(2.4),
    "lognormal": MixingDistribution.lognormal(np.log(0.6) - 0.125, 0.5),
}


@pytest.mark.parametrize("name", list(DEEP))
def test_mp_solver_matches_direct_loop_deep(name):
    mix = DEEP[name]
    cfg = MpApproxConfig(n=500)
    k_max = (1 << 17) - 1
    seq = mp_coefficients(mix, cfg, k_max)
    ref = direct_mp_cbar(mix, cfg.n, k_max)
    assert ref[-1] < 1e-40
    assert_matches_direct(seq.cbar_n[: k_max + 1], ref)


def _short_sum(spec: NbmSpec) -> bool:
    """Whether the floating equilibrium weights P(N > j-1) / E(N) sum below 1."""
    return math.fsum((spec.weight_survival() / spec.weight_mean).tolist()) < 1.0


def _random_spec(rng, size: int, alpha: float, tail: bool) -> NbmSpec:
    """A random spec of claim mean 0.7, with or without a short equilibrium sum."""
    while True:
        weights = rng.dirichlet(np.full(size, alpha))
        en = float(np.dot(weights, np.arange(1, size + 1)))
        spec = NbmSpec(tuple(weights), en / (en + 0.7))
        if _short_sum(spec) == tail:
            return spec


def _nbm_specs() -> dict[str, NbmSpec]:
    rng = np.random.default_rng(7)
    return {
        "short": _random_spec(rng, 4, 1.0, tail=False),
        # long support: the FFT levels carry most lags
        "wide": _random_spec(rng, 700, 0.5, tail=False),
        # rounding leaves the floating equilibrium weights 1e-16 short of 1;
        # read as a tail past the last weight, the coefficients would level
        # off near 1e-16 instead of decaying
        "short_residual": _random_spec(rng, 4, 1.0, tail=True),
        "wide_residual": _random_spec(rng, 700, 0.5, tail=True),
    }


NBM_SPECS = _nbm_specs()


@pytest.mark.parametrize("name", list(NBM_SPECS))
def test_nbm_solver_matches_direct_loop(name):
    spec = NBM_SPECS[name]
    k_max = (1 << 15) - 1
    seq = cbar_sequence(spec, k_max)
    ref = direct_nbm_cbar(spec, k_max)
    assert _short_sum(spec) == name.endswith("residual")
    assert_matches_direct(seq.cbar_n, ref)


def test_tables_are_read_only():
    seq = cbar_sequence(NbmSpec((0.5, 0.5), 0.7), 300)
    with pytest.raises(ValueError):
        seq.cbar_n[3] = 0.0
    mp = mp_coefficients(MixingDistribution.exponential(2.0), MpApproxConfig(n=50), 300)
    with pytest.raises(ValueError):
        mp.cbar_n[3] = 0.0


def test_requests_within_a_table_return_the_same_record():
    spec = NbmSpec((0.5, 0.5), 0.7)
    mix, cfg = MixingDistribution.erlang(2, 3.0), MpApproxConfig(n=50)
    for get in (lambda k: cbar_sequence(spec, k), lambda k: mp_coefficients(mix, cfg, k)):
        first = get(100)
        table = first.cbar_n
        assert table.size >= 101 and not table.flags.writeable
        assert get(0) is first and get(table.size - 1) is first
        grown = get(table.size).cbar_n
        np.testing.assert_array_equal(grown[: table.size], table)


def test_solver_survival_and_lags_are_the_normalized_weights():
    w = np.array([3.0, 2.0, 1.0, 1.0])
    solver = RenewalSolver(0.5, Weights(w))
    assert solver.total == 7.0
    np.testing.assert_allclose(solver.lags(0, 6), [0.0, 3 / 7, 2 / 7, 1 / 7, 1 / 7, 0.0])
    np.testing.assert_allclose(solver.survival(0, 6), [1.0, 4 / 7, 2 / 7, 1 / 7, 0.0, 0.0])
    # the sum past a finite array is part of the total and Fbar's level past it
    solver = RenewalSolver(0.5, Weights(w, beyond=1.0))
    assert solver.total == 8.0
    np.testing.assert_allclose(solver.lags(1, 5), w / 8.0)
    np.testing.assert_allclose(solver.survival(3, 6), [0.25, 0.125, 0.125])


@pytest.mark.parametrize(
    "mix",
    [MixingDistribution.erlang(2, 3.0), MixingDistribution.pareto(3.0, 1.0),
     MixingDistribution.lognormal(-1.0, 1.0)],
    ids=["erlang", "pareto", "lognormal"],
)
def test_solver_head_by_doubling_matches_the_dot_loop(mix):
    """The first B terms of c0 / (1 - c0 F), on the ladder of E for the law's claims,
    against the direct loop of one np.dot per term, kept here as the reference.
    Erlang(2,3)'s head falls to about 5e-60, where the two orders of summation
    differ most."""
    solver = _ladder(mp_claims_pmf(mix, x_max=1000))
    f, c0 = solver._near_f, solver.c0
    ref = np.empty(_B)
    ref[0] = c0
    for t in range(1, _B):
        ref[t] = c0 * np.dot(f[1 : t + 1], ref[t - 1 :: -1])
    np.testing.assert_allclose(solver._tau, ref, rtol=1e-13, atol=0.0)


# sizes on either side of the block boundaries, where the dense steps hand over
# to the FFT levels
BLOCK_EDGES = [0, 10, 511, 512, 513, 1023, 1024, 1535]


@functools.cache
def _direct_erlang_grid() -> np.ndarray:
    return direct_mp_cbar(MixingDistribution.erlang(2, 3.0), 500, max(BLOCK_EDGES))


@pytest.mark.parametrize("k_max", BLOCK_EDGES)
def test_cold_tables_at_block_edges_match_the_direct_loop(k_max, monkeypatch):
    monkeypatch.setattr(renewal._tables, "_entries", OrderedDict())
    seq = mp_coefficients(MixingDistribution.erlang(2, 3.0), MpApproxConfig(n=500), k_max)
    assert_matches_direct(seq.cbar_n[: k_max + 1], _direct_erlang_grid()[: k_max + 1])


@pytest.mark.parametrize("k_max", BLOCK_EDGES)
def test_recursion_at_block_edges_matches_the_direct_loop(k_max):
    """E's ladder terms psi(1..k_max) against one np.dot per term over the solver's own
    lags and survival, on a claim law whose support spans several blocks."""
    claims = mp_claims_pmf(MixingDistribution.lognormal(-1.0, 1.0), x_max=2000)
    psi = psi_recursion(claims, k_max)
    solver = _ladder(claims)
    f, fbar, c0 = solver.lags(0, k_max + 1), solver.survival(0, k_max + 1), solver.c0
    ref = np.empty(k_max)
    for k in range(k_max):
        ref[k] = c0 * (np.dot(f[1 : k + 1], ref[:k][::-1]) + fbar[k])
    assert psi[0] == claims.mean
    if k_max:
        assert_matches_direct(psi[1:], ref)


@pytest.mark.parametrize(
    "mix", [MixingDistribution.erlang(2, 3.0), MixingDistribution.pareto(3.0, 1.0)], ids=["erlang", "pareto"]
)
def test_an_extension_past_one_block_matches_a_single_extension(mix):
    weights = mixed_poisson._table(mix, 500)[0]
    whole = RenewalSolver(mix.mean, weights).extend(5000)
    grown = RenewalSolver(mix.mean, weights)
    first = grown.extend(513).copy()
    np.testing.assert_array_equal(grown.extend(5000), whole)
    np.testing.assert_array_equal(first, whole[:513])


@pytest.mark.parametrize(
    "law",
    [MixingDistribution.erlang(2, 3.0), MixingDistribution.pareto(3.0, 1.0),
     MixingDistribution.lognormal(-1.0, 1.0), "wide"],
    ids=["erlang", "pareto", "lognormal", "nbm"],
)
def test_level_tilts_bound_their_roots_within_the_loose_stop(law, monkeypatch):
    """Each level's tilt t starts from the level below's and stops once its tilted lags
    sum to at most e^0.01 / c0: so 1 <= c0 sum_i f_i e^{t i} <= e^0.01 over the level's
    lags, t is at or above the level's root, and the tilts never grow with the level."""
    monkeypatch.setattr(renewal._tables, "_entries", OrderedDict())
    if law == "wide":
        solver = cbar_sequence(NBM_SPECS["wide"], 4095).renewal
    else:
        solver = mp_coefficients(law, MpApproxConfig(n=500), (1 << 15) - 1).renewal
    levels = sorted(solver._levels.items())
    assert levels and levels[0][0] == _B
    tilts = []
    for s, (_, _, top, t) in levels:
        f = solver.lags(1, top + 1)
        live = f > 0.0
        mass = math.fsum(np.exp(np.log(solver.c0 * f[live]) + t * (np.flatnonzero(live) + 1.0)).tolist())
        assert 1.0 - 1e-12 <= mass <= math.exp(0.01) * (1.0 + 1e-12), (s, mass)
        tilts.append(t)
    assert tilts == sorted(tilts, reverse=True)


def test_weights_of_whole_blocks_keep_their_block_tails():
    w = np.random.default_rng(3).random(4 * _B)
    whole, padded = Weights(w), Weights(np.append(w, 0.0))
    np.testing.assert_array_equal(whole._tails[:4], padded._tails[:4])
    assert whole._tails.size == 5 and whole.tail(4 * _B) == 0.0


# -- the table cache ---------------------------------------------------------------


class _SizeRecorder:
    """Stands in for a solver: records the sizes it is extended to."""

    def __init__(self):
        self.sizes = []

    def extend(self, n):
        self.sizes.append(n)
        return np.zeros(n)


def test_tables_grow_in_quarter_octaves(monkeypatch):
    solver = _SizeRecorder()
    monkeypatch.setattr(renewal, "RenewalSolver", lambda c0, weights: solver)

    def start():
        return None, 0

    cache = TableCache()
    assert cache.get("law", 267_758, 0.5, start).cbar_n.size == 327_680  # N1's top at u = 500; not 2^19
    assert cache.get("law", 327_679, 0.5, start).cbar_n.size == 327_680  # a cached read
    assert solver.sizes == [327_680]
    solver.sizes.clear()
    cache = TableCache()
    for k in (0, 63, 64, 100, 10_901, 12_287):
        cache.get("law", k, 0.5, start)
    assert solver.sizes == [64, 80, 112, 12_288]
    for k in range(0, 20_000, 97):
        size = TableCache().get("law", k, 0.5, start).cbar_n.size
        e = size.bit_length() - 3
        assert size >> e in (4, 5, 6, 7) and size % (1 << e) == 0
        assert max(k + 1, 64) <= size <= max(1.25 * (k + 1), 64)


@pytest.mark.parametrize("k_max", [2.5, -1])
def test_k_max_must_be_a_nonnegative_integer(k_max):
    with pytest.raises(ValueError, match="k_max must be a nonnegative integer"):
        mp_coefficients(MixingDistribution.erlang(2, 3.0), MpApproxConfig(n=50), k_max)
    with pytest.raises(ValueError, match="k_max must be a nonnegative integer"):
        cbar_sequence(NbmSpec((0.5, 0.5), 0.7), k_max)


def test_integral_k_max_of_any_type_equals_int_k_max():
    mix, cfg = MixingDistribution.erlang(2, 3.0), MpApproxConfig(n=50)
    spec = NbmSpec((0.5, 0.5), 0.7)
    for k_max in (300.0, np.int64(300)):
        np.testing.assert_array_equal(
            mp_coefficients(mix, cfg, k_max).cbar_n, mp_coefficients(mix, cfg, 300).cbar_n
        )
        np.testing.assert_array_equal(
            cbar_sequence(spec, k_max).cbar_n, cbar_sequence(spec, 300).cbar_n
        )


def test_a_failed_start_holds_no_entry():
    cache = TableCache()

    def start():
        return Weights(np.array([1.0])), 1

    def broken():
        raise ValueError("no grid")

    good = cache.get("good", 10, 0.5, start)
    for key in range(8):
        with pytest.raises(ValueError, match="no grid"):
            cache.get(key, 10, 0.5, broken)
    with pytest.raises(ValueError, match="net profit condition"):
        cache.get("refused", 10, 1.0, start)
    assert list(cache._entries) == ["good"]
    assert cache.get("good", 10, 0.5, None) is good
    assert cache.get(0, 10, 0.25, start).cbar_n[0] == 0.25  # a failed key starts again


def test_extension_holds_only_its_own_laws_lock():
    cache = TableCache()
    started, release = threading.Event(), threading.Event()

    def start():
        return Weights(np.array([1.0])), 1

    def slow_start():
        started.set()
        release.wait(timeout=30)
        return start()

    cache.get("b", 10, 0.5, start)
    blocked = threading.Thread(target=cache.get, args=("a", 10, 0.5, slow_start))
    blocked.start()
    try:
        assert started.wait(timeout=30)
        t0 = time.perf_counter()
        assert cache.get("b", 20, 0.5, None).cbar_n[0] == 0.5  # cached read of another law
        assert cache.get("c", 20, 0.25, start).cbar_n[0] == 0.25  # another law's build
        assert time.perf_counter() - t0 < 5.0
    finally:
        release.set()
        blocked.join(timeout=30)
    assert not blocked.is_alive()


def test_concurrent_growth_matches_single_thread(monkeypatch):
    laws = [
        MixingDistribution.erlang(2, 3.0),
        MixingDistribution.exponential(2.0),
        MixingDistribution.erlang_mixture((0.3, 0.3, 0.4), 3.5),
    ]
    _check_concurrent_growth(laws, monkeypatch)


def test_concurrent_growth_past_the_cache_bound_matches_single_thread(monkeypatch):
    # more laws than a cache keeps: requests race with eviction and rebuilds
    laws = [MixingDistribution.exponential(1.5 + 0.1 * i) for i in range(12)]
    _check_concurrent_growth(laws, monkeypatch)


def _check_concurrent_growth(laws, monkeypatch):
    cfg = MpApproxConfig(n=500)
    top = 1 << 15
    monkeypatch.setattr(renewal._tables, "_entries", OrderedDict())
    reference = [mp_coefficients(mix, cfg, top).cbar_n for mix in laws]

    rng = np.random.default_rng(11)
    requests = [(int(rng.integers(len(laws))), int(rng.integers(0, top))) for _ in range(64)]
    monkeypatch.setattr(renewal._tables, "_entries", OrderedDict())
    results, errors = [], []
    n_threads = 8
    barrier = threading.Barrier(n_threads)

    def work(chunk):
        try:
            barrier.wait(timeout=30)
            for law, k in chunk:
                results.append((law, k, mp_coefficients(laws[law], cfg, k).cbar_n))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(requests[i::n_threads],))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(results) == len(requests)
    for law, k, cbar in results:
        assert cbar.size > k
        np.testing.assert_array_equal(cbar, reference[law][: cbar.size])
