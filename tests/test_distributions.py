"""Distribution layer checked against scipy and mpmath oracles.

Every negative binomial primitive is compared with scipy.stats.nbinom,
the mixed Poisson masses with either closed forms (degenerate, exponential,
Erlang) or high-precision mpmath quadrature (Pareto, lognormal), and the
mixture-closure identities with direct elementwise recomputation.  The
package's own G10/K21 quadrature is checked against scipy.integrate.quad.
"""

from __future__ import annotations

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

from gdruin import (
    DiscretePmf,
    MixingDistribution,
    MpApproxConfig,
    NbmSpec,
    SimConfig,
    cbar_sequence,
    geometric_pmf,
    mp_claims_pmf,
    mp_coefficients,
    nbm_claims_pmf,
    psi_mp_exact_reference,
    psi_mp_method1,
    psi_mp_method2,
    psi_nbm,
    psi_pk,
    psi_recursion,
    simulate_paths,
)
from gdruin.cli import JobSpec
from gdruin.distributions import (
    _GK_GAUSS,
    _GK_KRONROD,
    _GK_NODES,
    QuadratureError,
    _erfc,
    _erfcx,
    _erfcx_block,
    _log_gamma,
    _log_gamma_range,
    _mp_masses,
    _mp_sf,
    _nb_logpmf,
    _nbm_masses,
    _nbm_sf,
    _poisson_gamma_quad,
    _poisson_sf,
    _whole_number,
    equilibrium,
)


def _negbin_sf(k, p, x):
    """P(NegBin(k, p) > x) as the survival of the one-weight mixture NBM((0, .., 0, 1), p)."""
    return _nbm_sf(NbmSpec((0.0,) * (k - 1) + (1.0,), p), x)


nb_args = st.tuples(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=1500),
)


# -- negative binomial primitives ----------------------------------------------


@given(nb_args)
@settings(max_examples=200, deadline=None)
def test_nb_pmf_matches_scipy(args):
    k, p, x = args
    ref = sps.nbinom.pmf(x, k, p)
    assert np.exp(_nb_logpmf(float(k), p, float(x))) == pytest.approx(ref, rel=1e-10, abs=1e-300)


@given(nb_args)
@settings(max_examples=200, deadline=None)
def test_nb_sf_matches_scipy(args):
    k, p, x = args
    assert _negbin_sf(k, p, x) == pytest.approx(sps.nbinom.sf(x, k, p), rel=1e-10, abs=1e-300)


def test_nb_pmf_small_cases_by_hand():
    # k=1 is plain geometric: p (1-p)^x
    assert np.exp(_nb_logpmf(1.0, 0.25, 3.0)) == pytest.approx(0.25 * 0.75**3, rel=1e-14)
    # k=2, x=2: C(3,2) p^2 q^2
    assert np.exp(_nb_logpmf(2.0, 0.5, 2.0)) == pytest.approx(3 * 0.25 * 0.25, rel=1e-14)


# -- DiscretePmf container -------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=40),
    st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=150, deadline=None)
def test_discrete_pmf_survival_is_exact_suffix_sum(raw, tail_frac):
    total = math.fsum(raw) / (1.0 - tail_frac) if tail_frac else math.fsum(raw)
    pmf = np.asarray(raw) / total
    tail = max(0.0, 1.0 - math.fsum(pmf.tolist()))
    mean = float(np.dot(np.arange(pmf.size), pmf)) + tail * pmf.size
    dist = DiscretePmf(pmf, tail_mass=tail, mean=mean)
    for x in range(dist.support_max + 1):
        direct = math.fsum(pmf[x + 1 :].tolist()) + tail
        assert dist.sf(x) == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert dist.sf(-1) == 1.0
    assert dist.sf(dist.support_max + 5) == tail
    assert dist.f(dist.support_max + 1) == 0.0


def test_discrete_pmf_rejects_bad_mass():
    with pytest.raises(ValueError):
        DiscretePmf(np.array([0.5, 0.4]))  # short of 1
    with pytest.raises(ValueError):
        DiscretePmf(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        DiscretePmf(np.array([0.5, 0.3]), tail_mass=0.2)  # mean required


def test_geometric_pmf_closed_form():
    p = 0.6
    dist = geometric_pmf(p, tail_tol=1e-12)
    assert dist.mean == pytest.approx((1 - p) / p, rel=1e-15)
    for x in range(0, dist.support_max, 7):
        assert dist.f(x) == pytest.approx(p * (1 - p) ** x, rel=1e-13)
        assert dist.sf(x) == pytest.approx((1 - p) ** (x + 1), rel=1e-11)
    assert dist.tail_mass < 1e-12


def test_equilibrium_is_scaled_survival():
    # geometric is a fixed point of the equilibrium transform P(Y > x) / E(Y)
    dist = geometric_pmf(0.7)
    cells = equilibrium(dist, 12)
    np.testing.assert_allclose(cells[:-1], dist.pmf[:11], rtol=1e-11)
    assert cells[-1] == pytest.approx(dist.sf(10), rel=1e-11)  # P(Y_e >= 11)
    assert math.fsum(cells.tolist()) == pytest.approx(1.0, abs=1e-15)


# -- negative binomial mixtures ---------------------------------------------------


def test_nbm_pmf_is_the_scipy_mixture():
    spec = NbmSpec((0.2, 0.5, 0.3), 0.7)
    xs = np.arange(40.0)
    ref = sum(w * sps.nbinom.pmf(xs, i + 1, 0.7) for i, w in enumerate(spec.weights))
    np.testing.assert_allclose(_nbm_masses(spec, xs), ref, rtol=1e-12, atol=1e-300)


def test_nbm_claims_pmf_mass_and_mean():
    spec = NbmSpec((0.4, 0.6), 0.65)
    claims = nbm_claims_pmf(spec, tail_tol=1e-13)
    assert math.fsum(claims.pmf.tolist()) + claims.tail_mass == pytest.approx(1.0, abs=1e-14)
    assert claims.mean == pytest.approx(spec.claim_mean, rel=1e-14)
    direct = float(np.dot(np.arange(claims.pmf.size), claims.pmf))
    assert direct == pytest.approx(spec.claim_mean, rel=1e-10)


def test_nbm_equilibrium_matches_elementwise_transform():
    """The mixture family is closed under the equilibrium transform.

    The transformed spec must reproduce survival/mean of the original claim
    law mass-by-mass, which is the property the ruin series relies on.
    """
    spec = NbmSpec((0.3, 0.45, 0.25), 0.6)
    eq_spec = NbmSpec(tuple(spec.weight_survival()[:-1] / spec.weight_mean), spec.p)
    claims = nbm_claims_pmf(spec, tail_tol=1e-15)
    xs = np.arange(60.0)
    np.testing.assert_allclose(
        _nbm_masses(eq_spec, xs), claims.survival[:60] / claims.mean, rtol=1e-10, atol=1e-16
    )


@pytest.mark.parametrize("beta", [1.5, 3.0])
def test_erlang_mixture_to_nbm_identity(beta):
    # mixing a Poisson rate over a mixture of Erlangs gives exactly an NBM law
    weights = (0.25, 0.5, 0.25)
    mix = MixingDistribution.erlang_mixture(weights, beta)
    spec = mix.as_nbm()
    assert spec.p == pytest.approx(beta / (beta + 1.0), rel=1e-15)
    xs = np.arange(30.0)
    np.testing.assert_allclose(_mp_masses(mix, xs), _nbm_masses(spec, xs), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize(
    "mix, weights, p",
    [
        (MixingDistribution.exponential(2.4), (1.0,), 2.4 / 3.4),
        (MixingDistribution.erlang(2, 3.0), (0.0, 1.0), 0.75),
        (MixingDistribution.erlang_mixture((0.4, 0.6), 2.5), (0.4, 0.6), 2.5 / 3.5),
    ],
    ids=["exp", "erlang", "erlang_mixture"],
)
def test_erlang_family_mixing_is_an_nbm_law(mix, weights, p):
    spec = mix.as_nbm()
    assert spec == NbmSpec(weights, p)
    xs = np.arange(401.0)
    np.testing.assert_array_equal(_mp_masses(mix, xs), _nbm_masses(spec, xs))
    if max(weights) == 1.0:
        # one component: the single negative binomial kernel, bit for bit
        shape = weights.index(1.0) + 1
        np.testing.assert_array_equal(
            _nbm_masses(spec, xs), np.exp(_nb_logpmf(float(shape), p, xs))
        )


@pytest.mark.parametrize(
    "mix",
    [
        MixingDistribution.pareto(3.0, 1.0),
        MixingDistribution.lognormal(-1.0, 1.0),
        MixingDistribution.degenerate(0.5),
        MixingDistribution.from_cdf_table([0.2, 0.6], [0.5, 1.0]),
    ],
    ids=["pareto", "lognormal", "degenerate", "cdf_table"],
)
def test_other_mixing_laws_have_no_nbm_form(mix):
    assert mix.as_nbm() is None


# -- mixing laws -----------------------------------------------------------------


@pytest.mark.parametrize(
    "mix, general",
    [
        (MixingDistribution.exponential(2.0), MixingDistribution.erlang_mixture((1,), 2.0)),
        (MixingDistribution.erlang(2, 3.0), MixingDistribution.erlang_mixture((0, 1), 3.0)),
        (MixingDistribution.degenerate(0.6), MixingDistribution.from_cdf_table((0.6,), (1,))),
    ],
    ids=["exponential", "erlang", "degenerate"],
)
def test_special_laws_are_built_in_their_general_form(mix, general):
    assert mix == general and hash(mix) == hash(general)
    assert mix.kind in ("erlang_mixture", "atoms")


def test_mixing_survival_against_scipy():
    xs = np.linspace(0.0, 8.0, 33)
    cases = [
        (MixingDistribution.exponential(2.0), sps.expon(scale=0.5)),
        (MixingDistribution.erlang(2, 3.0), sps.gamma(a=2, scale=1 / 3)),
        (MixingDistribution.pareto(3.0, 1.0), sps.lomax(c=3.0, scale=1.0)),
        (MixingDistribution.lognormal(-1.0, 1.0), sps.lognorm(s=1.0, scale=math.exp(-1))),
    ]
    for mix, frozen in cases:
        np.testing.assert_allclose(mix.sf(xs), frozen.sf(xs), rtol=1e-10, atol=1e-14)


def test_mixing_means():
    assert MixingDistribution.exponential(2.0).mean == pytest.approx(0.5)
    assert MixingDistribution.erlang(2, 3.0).mean == pytest.approx(2 / 3)
    assert MixingDistribution.pareto(3.0, 1.0).mean == pytest.approx(0.5)
    assert MixingDistribution.lognormal(-1.0, 1.0).mean == pytest.approx(math.exp(-0.5))
    assert not math.isfinite(MixingDistribution.pareto(1.0, 1.0).mean)


def test_mp_pmf_degenerate_is_poisson():
    mix = MixingDistribution.degenerate(0.8)
    xs = np.arange(15.0)
    np.testing.assert_allclose(_mp_masses(mix, xs), sps.poisson.pmf(xs, 0.8), rtol=1e-12)


def test_mp_pmf_exponential_is_geometric():
    beta = 2.5
    mix = MixingDistribution.exponential(beta)
    q = 1.0 / (1.0 + beta)
    xs = np.arange(25.0)
    np.testing.assert_allclose(_mp_masses(mix, xs), (1 - q) * q**xs, rtol=1e-12)


def test_mp_pmf_erlang_is_negative_binomial():
    mix = MixingDistribution.erlang(2, 3.0)
    xs = np.arange(25.0)
    np.testing.assert_allclose(_mp_masses(mix, xs), sps.nbinom.pmf(xs, 2, 0.75), rtol=1e-12)


@pytest.mark.parametrize(
    "mix",
    [MixingDistribution.pareto(3.0, 1.0), MixingDistribution.lognormal(-1.0, 1.0)],
    ids=["pareto", "lognormal"],
)
def test_mp_pmf_quadrature_against_mpmath(mix):
    """Mass values that need numerical integration, re-derived at 30 digits."""
    if mix.kind == "pareto":
        alpha, theta = mix.params
        dens = lambda lam: alpha * theta**alpha / (theta + lam) ** (alpha + 1)
    else:
        m, s = mix.params
        dens = lambda lam: mpmath.exp(-((mpmath.log(lam) - m) ** 2) / (2 * s**2)) / (
            lam * s * mpmath.sqrt(2 * mpmath.pi)
        )
    with mpmath.workdps(30):
        for x in (0, 1, 2, 5, 9):
            f = lambda lam: mpmath.exp(-lam) * lam**x / mpmath.factorial(x) * dens(lam)
            ref = float(mpmath.quad(f, [0, x + 1, mpmath.inf]))
            assert _mp_masses(mix, np.array([x]))[0] == pytest.approx(ref, rel=1e-9)


def test_far_quadrature_masses_against_mpmath():
    """Far from the mixing mean the Poisson kernel is a narrow peak at rate = x,
    about 8 sqrt(x) / x^2 wide in the integration variable t = rate / (1 + rate)."""
    mix = MixingDistribution.pareto(3.0, 1.0)
    with mpmath.workdps(30):
        for x in (700, 1000, 10_000, 40_000):
            kernel = lambda lam: mpmath.exp(x * mpmath.log(lam) - lam - mpmath.loggamma(x + 1))
            pts = [0, x - 8 * mpmath.sqrt(x), x, x + 8 * mpmath.sqrt(x), mpmath.inf]
            mass = float(mpmath.quad(lambda lam: kernel(lam) * 3 / (1 + lam) ** 4, pts))
            tail = float(mpmath.quad(lambda lam: kernel(lam) / (1 + lam) ** 3, pts))
            if x <= 1000:
                claims = mp_claims_pmf(mix, x_max=x)
                got = claims.pmf[x], claims.tail_mass
            else:  # a whole claim vector this long would cost 10^4 quadratures
                got = _mp_masses(mix, np.array([float(x)]))[0], _mp_sf(mix, x)
            assert got == pytest.approx((mass, tail), rel=1e-10)


def test_qk21_tables_integrate_monomials_exactly():
    """K21 is exact for degree <= 31 on [-1, 1] and its embedded G10 for degree <= 19."""
    for k in range(32):
        exact = (1 + (-1) ** k) / (k + 1)
        assert abs(_GK_KRONROD @ _GK_NODES**k - exact) < 1e-15
        if k < 20:
            assert abs(_GK_GAUSS @ _GK_NODES**k - exact) < 1e-15
    assert np.count_nonzero(_GK_GAUSS) == 10
    # one degree past its exactness each rule misses x^k
    assert abs(_GK_GAUSS @ _GK_NODES**20 - 2 / 21) > 1e-8
    assert abs(_GK_KRONROD @ _GK_NODES**32 - 2 / 33) > 1e-13


def _scipy_poisson_gamma(mix, x, h):
    """E[h(rate) rate^x e^{-rate} / x!] by scipy.integrate.quad over the rate itself,
    piecewise at the package's breakpoints, with the log kernel taken from its peak
    at rate = x and the peak value x log x - x - log x! from mpmath."""
    with mpmath.workdps(40):
        peak = float(x * mpmath.log(x) - x - mpmath.loggamma(x + 1)) if x else 0.0

    def f(lam):
        if x == 0:
            return math.exp(peak - lam) * h(lam)
        d = lam - x
        logk = x * (math.log1p(d / x) if 2 * lam > x else math.log(lam / x)) - d + peak
        return math.exp(logk) * h(lam)

    w = 8.0 * math.sqrt(x + 1.0)
    edges = sorted({0.0, mix.mean, max(x - w, 0.0), float(x), x + w})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        pieces = [
            integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, b in zip(edges, edges[1:] + [math.inf])
        ]
    return math.fsum(pieces)


@pytest.mark.parametrize(
    "mix",
    [
        MixingDistribution.pareto(3.0, 1.0),
        MixingDistribution.lognormal(-1.0, 1.0),
        MixingDistribution.pareto(2.1, 1.0),
    ],
    ids=["pareto3", "lognormal", "pareto2.1"],
)
def test_quadrature_masses_against_scipy_quad(mix):
    """Masses and survivals agree with scipy's QUADPACK run over the rate."""
    for x in (0, 1, 2, 5, 19, 20, 100, 331, 1000, 3000):
        mass = _mp_masses(mix, np.array([float(x)]))[0]
        assert mass == pytest.approx(_scipy_poisson_gamma(mix, x, mix._pdf), rel=1e-13)
        assert _mp_sf(mix, x) == pytest.approx(_scipy_poisson_gamma(mix, x, mix.sf), rel=1e-13)


def test_quadrature_past_its_interval_budget_raises():
    """An integrand no 400 intervals can resolve is refused, and the error names x."""
    mix = MixingDistribution.pareto(3.0, 1.0)
    with pytest.raises(QuadratureError, match=r"quadrature at x=7:"):
        _poisson_gamma_quad(mix, 7, lambda lam: 1.0 + np.sign(np.sin(1e3 * lam)))


def test_declared_tail_is_the_certified_survival():
    """P(X > 331) for Lognormal(-1,1) mixing, by the Poisson-Gamma integral at 30 digits."""
    mix = MixingDistribution.lognormal(-1.0, 1.0)
    claims = mp_claims_pmf(mix, x_max=331)
    m, s, y = -1, 1, 331
    with mpmath.workdps(30):
        sf = lambda lam: mpmath.erfc((mpmath.log(lam) - m) / (s * mpmath.sqrt(2))) / 2
        f = lambda lam: sf(lam) * mpmath.exp(-lam) * lam**y / mpmath.factorial(y)
        ref = float(mpmath.quad(f, [0, y / 2, y, 2 * y, mpmath.inf]))
    assert ref == pytest.approx(5.479e-12, rel=1e-3)
    assert claims.tail_mass == pytest.approx(ref, rel=1e-8)


def test_mp_claims_pmf_windowed_and_complete():
    mix = MixingDistribution.erlang(2, 3.0)
    short = mp_claims_pmf(mix, x_max=6)
    assert short.support_max == 6
    assert short.mean == pytest.approx(2 / 3, rel=1e-15)
    full = mp_claims_pmf(mix, tail_tol=1e-10)
    for x in range(7):
        assert short.f(x) == pytest.approx(full.f(x), rel=1e-13)
    assert short.tail_mass == pytest.approx(
        math.fsum(full.pmf[7:].tolist()) + full.tail_mass, rel=1e-9
    )


_CLAIM_BUILDERS = {
    "mp": lambda x_max: mp_claims_pmf(MixingDistribution.erlang(2, 3.0), x_max=x_max),
    "nbm": lambda x_max: nbm_claims_pmf(NbmSpec((0.5, 0.5), 0.7), x_max=x_max),
}


@pytest.mark.parametrize("x_max", [2.5, -1])
@pytest.mark.parametrize("name", list(_CLAIM_BUILDERS))
def test_x_max_must_be_a_nonnegative_integer(name, x_max):
    with pytest.raises(ValueError, match="x_max must be a nonnegative integer"):
        _CLAIM_BUILDERS[name](x_max)


@pytest.mark.parametrize("name", list(_CLAIM_BUILDERS))
def test_integral_x_max_of_any_type_equals_int_x_max(name):
    ref = _CLAIM_BUILDERS[name](6)
    for x_max in (6.0, np.int64(6)):
        claims = _CLAIM_BUILDERS[name](x_max)
        np.testing.assert_array_equal(claims.pmf, ref.pmf)
        assert claims.tail_mass == ref.tail_mass


def _sim_result():
    return simulate_paths(SimConfig(geometric_pmf(0.75), 50, seed=1))


_ERLANG = MixingDistribution.erlang(2, 3.0)
_NBM = NbmSpec((0.5, 0.5), 0.7)
# every entry point that takes a whole-number argument: (name in the message, call)
_WHOLE_ARGS = {
    "psi_pk": ("u", lambda x: psi_pk(geometric_pmf(0.75), x)),
    "psi_nbm": ("u", lambda x: psi_nbm(_NBM, x)),
    "psi_mp_method1": ("u", lambda x: psi_mp_method1(_ERLANG, x, MpApproxConfig(n=50))),
    "psi_mp_method2": ("u", lambda x: psi_mp_method2(_ERLANG, x, MpApproxConfig(n=50, m=10))),
    "SimResult.psi_at": ("u", lambda x: _sim_result().psi_at(x)),
    "psi_recursion": ("u_max", lambda x: psi_recursion(geometric_pmf(0.75), x)),
    "psi_mp_exact_reference": ("u_max", lambda x: psi_mp_exact_reference(_ERLANG, x)),
    "JobSpec": ("--u-max", lambda x: JobSpec(method="exact", u_max=x)),
    "cbar_sequence": ("k_max", lambda x: cbar_sequence(_NBM, x)),
    "mp_coefficients": ("k_max", lambda x: mp_coefficients(_ERLANG, MpApproxConfig(n=50), x)),
    "mp_claims_pmf": ("x_max", lambda x: mp_claims_pmf(_ERLANG, x_max=x)),
    "erlang": ("shape", lambda x: MixingDistribution.erlang(x, 3.0)),
    "MpApproxConfig.n": ("n", lambda x: MpApproxConfig(n=x)),
    "MpApproxConfig.m": ("m", lambda x: MpApproxConfig(m=x)),
    "SimConfig.replications": ("replications", lambda x: SimConfig(geometric_pmf(0.75), x)),
    "SimConfig.horizon": ("horizon", lambda x: SimConfig(geometric_pmf(0.75), 10, horizon=x)),
    "SimConfig.seed": ("seed", lambda x: SimConfig(geometric_pmf(0.75), 10, seed=x)),
}


@pytest.mark.parametrize("x", [math.inf, math.nan, 2.5, -1])
@pytest.mark.parametrize("entry", list(_WHOLE_ARGS))
def test_whole_number_arguments_reject_what_is_not_one(entry, x):
    name, call = _WHOLE_ARGS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a (nonnegative|positive) integer$"):
        call(x)


def test_whole_number_returns_the_int():
    assert [_whole_number(v, "k") for v in (0, 3.0, np.int64(7), np.float64(2.0))] == [0, 3, 7, 2]
    assert type(_whole_number(np.float64(2.0), "k")) is int
    with pytest.raises(ValueError, match="^k must be a positive integer$"):
        _whole_number(0, "k", least=1)


# -- special functions against 40-digit mpmath -----------------------------------
#
# Each helper is checked over the arguments the package reads.  Tolerances are
# stated in the scale of the helper's own rounding: a few ulps of the largest
# log Gamma for the NegBin kernel, whose three log Gamma values cancel.


def _rel(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return np.abs(got - ref) / np.abs(ref)


def test_log_gamma_against_mpmath():
    z = np.unique(np.r_[np.arange(1.0, 200.0), np.round(np.geomspace(200, 1e7, 120))])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.loggamma(int(v))) for v in z])
    ulps = np.abs(_log_gamma(z) - ref) / np.spacing(np.maximum(np.abs(ref), np.spacing(1.0)))
    assert ulps.max() <= 4.0
    # the sliced range and the elementwise form are one function
    np.testing.assert_array_equal(_log_gamma_range(5000), _log_gamma(np.arange(1.0, 5001.0)))


@pytest.mark.parametrize("k, p", [(1, 0.3), (7, 0.9), (500, 1 / 501), (1000, 0.002), (1000, 0.7)])
def test_nb_logpmf_against_mpmath_to_three_hundred_thousand(k, p):
    top = 300_000 - k
    x = np.arange(top + 1.0)
    log_pmf = _nb_logpmf(float(k), p, x)
    picks = np.unique(np.r_[0, 1, 5, np.round(np.geomspace(1, top, 30))]).astype(int)
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        ref = [float(mpmath.log(mpmath.binomial(k + i - 1, i)) + k * mpmath.log(q) + i * mpmath.log(1 - q))
               for i in picks]
    err = np.abs(log_pmf[picks] - ref)
    assert np.all(err <= 8 * np.spacing(_log_gamma(k + picks.astype(float)))), err.max()
    # the sliced window and the elementwise kernel give the same bits
    np.testing.assert_array_equal(log_pmf[picks], _nb_logpmf(float(k), p, picks.astype(float)))


@pytest.mark.parametrize(
    "k, p, x",
    [(1, 0.3, 10), (5, 0.5, 100), (300, 0.05, 1500), (1000, 0.7, 100), (50, 0.9, 20),
     (1000, 0.5, 2000), (2, 0.999, 40), (500, 1 / 501, 300_000), (1000, 0.002, 400_000)],
)
def test_nb_sf_against_mpmath(k, p, x):
    """Relative error of P(NegBin(k, p) > x) = sum_{i<k} C(x+i, i) (1-p)^(x+1) p^i."""
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        ref = float(mpmath.fsum(mpmath.binomial(x + i, i) * q**i for i in range(k)) * (1 - q) ** (x + 1))
    got = _negbin_sf(k, p, x)
    assert got <= 1.0
    # k masses, each within a few ulps of log Gamma(k + x) in the log
    assert _rel(got, min(ref, 1.0)) <= 16 * np.spacing(math.lgamma(k + x + 1.0)) + 1e-14


def test_erlang_family_against_mpmath():
    """Survival for shapes 1..50 and t in [0, 800], the density and the stop-loss."""
    t = np.r_[0.0, np.geomspace(1e-3, 800.0, 40)]
    with mpmath.workdps(40):
        for shape in range(1, 51):
            got = MixingDistribution.erlang(shape, 1.0).sf(t)
            ref = np.array([float(mpmath.gammainc(shape, v, mpmath.inf, regularized=True)) for v in t])
            live = ref > 1e-300
            # term by term from e^{-t} below t = 700, in log form above
            tol = np.where(t[live] < 700.0, 2e-15, 2e-13)
            assert np.all(_rel(got[live], ref[live]) <= tol), shape
        mix = MixingDistribution.erlang_mixture((0.2, 0.0, 0.5, 0.3), 2.5)
        lam = np.array([1e-3, 0.1, 1.0, 4.0, 20.0, 120.0])
        beta = mpmath.mpf(2.5)

        def gamma_sf(k, v):
            return mpmath.gammainc(k, beta * v, mpmath.inf, regularized=True)

        for v, pdf in zip(lam, mix._pdf(lam)):
            v = mpmath.mpf(v)
            ref = sum(w * beta**k * v ** (k - 1) * mpmath.exp(-beta * v) / mpmath.factorial(k - 1)
                      for k, w in zip(range(1, 5), mix.weights))
            assert _rel(pdf, float(ref)) <= 4e-15
            ref = sum(w * (k / beta * gamma_sf(k + 1, v) - v * gamma_sf(k, v))
                      for k, w in zip(range(1, 5), mix.weights))
            assert _rel(mix._stop_loss(float(v)), float(ref)) <= 4e-15


def test_erfc_and_erfcx_against_mpmath():
    z = np.linspace(-6.0, 26.5, 1301)
    v = np.r_[np.linspace(0.0, 30.0, 301), np.geomspace(30.0, 1e4, 100)]
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erfc(mpmath.mpf(a))) for a in z])
        ref_x = np.array([float(mpmath.erfc(mpmath.mpf(a)) * mpmath.exp(mpmath.mpf(a) ** 2)) for a in v])
    assert _rel(_erfc(z), ref).max() <= 2e-15
    assert _rel(_erfcx_block(v), ref_x).max() <= 2e-15
    assert _rel([_erfcx(a) for a in v], ref_x).max() <= 1e-15
    # below 0 the scalar form is 2 exp(v^2) - erfcx(-v), until that overflows
    with mpmath.workdps(40):
        for a in (-0.5, -5.0, -26.0):
            ref = float(mpmath.erfc(mpmath.mpf(a)) * mpmath.exp(mpmath.mpf(a) ** 2))
            assert _rel(_erfcx(a), ref) <= 1e-15
    assert _erfcx(-27.0) == math.inf
    # the blocks of a long array are evaluated as one
    long = np.linspace(-3.0, 9.0, 20_000)
    np.testing.assert_array_equal(_erfc(long)[9_000:9_100], _erfc(long[9_000:9_100]))


def test_poisson_tail_against_mpmath():
    lam = np.array([0.0, 1e-3, 0.5, 1.0, 3.7, 10.0, 50.0, 200.0, 1000.0])
    with mpmath.workdps(40):
        for x in (0, 1, 5, 10, 49, 50, 100, 250, 999, 1000, 1500):
            got = _poisson_sf(x, lam)
            assert got[0] == 0.0
            ref = np.array([float(mpmath.gammainc(x + 1, 0, v, regularized=True)) for v in lam[1:]])
            live = ref > 1e-300
            # each mass within a few ulps of x log(rate) + rate + log x! in the log
            assert np.all(_rel(got[1:][live], ref[live]) <= 2e-12), x


@pytest.mark.parametrize(
    "mix",
    [MixingDistribution.pareto(3.0, 1.0), MixingDistribution.lognormal(-1.0, 1.0),
     MixingDistribution.lognormal(0.5, 0.4)],
    ids=["pareto", "lognormal", "narrow_lognormal"],
)
def test_continuous_stop_loss_against_mpmath(mix):
    """E[(rate - x)+] in the bulk and deep in the tail; the lognormal's two closed forms
    meet at its median."""
    xs = [0.01, 0.3, 1.0, math.exp(mix.params[0]) if mix.kind == "lognormal" else 2.0, 5.0, 40.0, 300.0]
    with mpmath.workdps(60):  # the lognormal reference cancels past the median
        for x in xs:
            x_ = mpmath.mpf(x)
            if mix.kind == "pareto":
                alpha, theta = (mpmath.mpf(v) for v in mix.params)
                ref = theta * (theta / (theta + x_)) ** (alpha - 1) / (alpha - 1)
            else:
                m, s = (mpmath.mpf(v) for v in mix.params)
                d = (m - mpmath.log(x_)) / s
                ref = mpmath.exp(m + s * s / 2) * mpmath.ncdf(d + s) - x_ * mpmath.ncdf(d)
            if ref > 1e-300:
                assert _rel(mix._stop_loss(x), float(ref)) <= 1e-13, x
