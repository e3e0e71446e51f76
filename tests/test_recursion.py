"""Forward recursion checked against a linear-system solve and closed forms.

The first-passage equations

    psi(u) = Fbar(u) + sum_{y=0}^{u} f(y) psi(u+1-y)

define psi as the solution of a sparse linear system once truncated at a
depth where psi is negligible.  Solving that system with numpy.linalg gives
an oracle that shares no code path with the forward recursion.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gdruin import (
    DiscretePmf,
    MixingDistribution,
    NbmSpec,
    convert_cb_to_gd,
    geometric_pmf,
    mp_claims_pmf,
    nbm_claims_pmf,
    psi_geometric_closed,
    psi_mp_exact_reference,
    psi_nbm,
    psi_recursion,
)
from gdruin import recursion
from gdruin.recursion import _check_residual

GEO_PS = [0.55, 0.6, 0.75, 0.9]


def psi_linear_system(claims: DiscretePmf, u_max: int, depth: int = 400) -> np.ndarray:
    """Solve the first-passage equations directly, truncating psi at `depth`."""
    a = np.eye(depth)
    b = np.empty(depth)
    for u in range(depth):
        b[u] = claims.sf(u)
        for y in range(u + 1):
            v = u + 1 - y
            if v < depth:
                a[u, v] -= claims.f(y)
    psi = np.linalg.solve(a, b)
    return psi[: u_max + 1]


# -- agreement with independent solutions ---------------------------------------


@pytest.mark.parametrize("p", GEO_PS)
def test_recursion_matches_geometric_closed_form(p):
    claims = geometric_pmf(p, tail_tol=1e-40)
    psi = psi_recursion(claims, 30)
    ref = np.array([psi_geometric_closed(p, u) for u in range(31)])
    np.testing.assert_allclose(psi, ref, rtol=0, atol=1e-12)


def test_geometric_closed_form_values():
    assert psi_geometric_closed(0.75, 0) == pytest.approx(1 / 3, rel=1e-15)
    assert psi_geometric_closed(0.75, 2) == pytest.approx(1 / 27, rel=1e-15)
    assert psi_geometric_closed(0.5, 7) == 1.0  # no net profit: certain ruin
    assert psi_geometric_closed(0.3, 0) == 1.0


@pytest.mark.parametrize(
    "claims",
    [
        geometric_pmf(0.6, tail_tol=1e-30),
        nbm_claims_pmf(NbmSpec((0.5, 0.5), 0.7), tail_tol=1e-16),
        mp_claims_pmf(MixingDistribution.degenerate(0.5), tail_tol=1e-16),
        mp_claims_pmf(MixingDistribution.erlang(2, 3.0), tail_tol=1e-16),
    ],
    ids=["geometric", "nbm", "poisson", "mp-erlang"],
)
def test_recursion_matches_linear_system(claims):
    psi = psi_recursion(claims, 25)
    ref = psi_linear_system(claims, 25)
    np.testing.assert_allclose(psi, ref, rtol=0, atol=1e-10)


# -- deep tails: relative accuracy where psi is tiny ----------------------------

NBM_SPEC = NbmSpec((0.5, 0.5), 0.7)


@pytest.mark.parametrize(
    "law",
    [
        MixingDistribution.erlang(2, 3.0),
        MixingDistribution.exponential(2.4),
        MixingDistribution.erlang_mixture((0.3, 0.3, 0.4), 3.5),
        NBM_SPEC,
    ],
    ids=["erlang", "exponential", "erlang-mixture", "nbm"],
)
def test_recursion_keeps_relative_accuracy_to_u_1000(law):
    if isinstance(law, NbmSpec):
        # the smallest tolerance runs the support until the survival underflows
        spec, psi = law, psi_recursion(nbm_claims_pmf(law, tail_tol=5e-324), 1000)
    else:
        spec, psi = law.as_nbm(), psi_mp_exact_reference(law, 1000)
    ref = np.array([psi_nbm(spec, u) for u in range(1001)])
    normal = ref >= np.finfo(float).tiny  # subnormal values carry no relative precision
    assert normal[:800].all()
    np.testing.assert_allclose(psi[normal], ref[normal], rtol=1e-10, atol=0)


def test_recursion_matches_geometric_closed_form_to_u_700():
    claims = geometric_pmf(0.6, tail_tol=1e-300)
    psi = psi_recursion(claims, 700)
    ref = np.array([psi_geometric_closed(0.6, u) for u in range(701)])
    assert ref[-1] < 1e-120
    np.testing.assert_allclose(psi, ref, rtol=1e-12, atol=0)


def test_residual_check_is_relative_where_psi_is_tiny():
    claims = geometric_pmf(0.6, tail_tol=1e-300)
    psi = np.array([psi_geometric_closed(0.6, u) for u in range(701)])
    _check_residual(psi, claims)
    u = 566
    assert 1e-101 < psi[u] < 1e-99
    psi[u] *= 1.0 + 1e-6
    with pytest.raises(RuntimeError, match="recursion residual"):
        _check_residual(psi, claims)


def test_bernoulli_claims_by_hand():
    # claims 0 or 1 with probability 1/2: the surplus never decreases, so
    # ruin can only happen at once from u = 0
    claims = DiscretePmf(np.array([0.5, 0.5]))
    psi = psi_recursion(claims, 6)
    assert psi[0] == 0.5
    np.testing.assert_allclose(psi[1:], 0.0, atol=1e-15)


def residual_loop(psi: np.ndarray, claims: DiscretePmf) -> float:
    """Worst defect of the defining identity relative to its terms, one exact sum per step."""
    worst = 0.0
    for u in range(psi.size - 1):
        terms = [claims.f(0) * psi[u + 1], -psi[u], claims.sf(u)]
        terms += [claims.f(y) * psi[u + 1 - y] for y in range(1, u + 1)]
        scale = max(math.fsum(abs(t) for t in terms), np.finfo(float).tiny)
        worst = max(worst, abs(math.fsum(terms)) / scale)
    return worst


@pytest.mark.parametrize(
    "claims",
    [
        geometric_pmf(0.6, tail_tol=1e-30),
        DiscretePmf([0.5, 0.2], tail_mass=0.3, mean=0.9),  # the tail is P(Y > u) past x = 1
        mp_claims_pmf(MixingDistribution.erlang(2, 3.0), x_max=40),
        DiscretePmf([0.5, 0.2, 0.3]),
        DiscretePmf([1.0]),
    ],
    ids=["geometric", "declared-tail", "mp-erlang", "short-support", "one-point"],
)
def test_residual_pass_matches_the_loop(claims, monkeypatch):
    monkeypatch.setattr(recursion, "_RESIDUAL_TOL", math.inf)
    psi = 0.9 ** np.arange(41.0)  # no solution: defects are of order 0.1
    for head in (psi, psi[:2], psi[:1]):
        assert _check_residual(head, claims) == pytest.approx(residual_loop(head, claims), rel=1e-13)


def test_residual_check_passes_the_true_psi_and_catches_a_perturbation():
    claims = geometric_pmf(0.6, tail_tol=1e-40)
    psi = np.array([psi_geometric_closed(0.6, u) for u in range(61)])
    _check_residual(psi, claims)
    psi[17] += 1e-9
    with pytest.raises(RuntimeError, match="recursion residual"):
        _check_residual(psi, claims)


@pytest.mark.parametrize("u_max", [0, 1, 5])
def test_one_point_claim_law_has_no_ruin(u_max):
    # support_max = 0: the residual check has no claim sizes to convolve
    psi = psi_recursion(DiscretePmf([1.0]), u_max)
    np.testing.assert_array_equal(psi, np.zeros(u_max + 1))


# -- contract checks -------------------------------------------------------------


def test_psi_zero_is_exactly_the_mean():
    claims = nbm_claims_pmf(NbmSpec((0.3, 0.7), 0.65), tail_tol=1e-14)
    psi = psi_recursion(claims, 10)
    assert psi[0] == claims.mean


def test_psi_vector_invariants():
    claims = geometric_pmf(0.55, tail_tol=1e-30)
    psi = psi_recursion(claims, 40)
    assert np.all(psi >= 0.0) and np.all(psi <= 1.0)
    assert np.all(np.diff(psi) <= 0.0)


def test_rejects_zero_mass_at_origin():
    claims = DiscretePmf(np.array([0.0, 0.6, 0.4]), mean=1.4)
    with pytest.raises(ValueError):
        psi_recursion(claims, 5)


def test_rejects_missing_net_profit():
    claims = DiscretePmf(np.array([0.25, 0.25, 0.25, 0.25]))  # mean 1.5
    with pytest.raises(ValueError):
        psi_recursion(claims, 5)


def test_rejects_truncation_shorter_than_query():
    claims = geometric_pmf(0.9, tail_tol=1e-6)  # support ends near x = 5
    with pytest.raises(ValueError):
        psi_recursion(claims, 20)


@pytest.mark.parametrize("u_max", [-1, 2.5])
def test_rejects_u_max_that_is_not_a_nonnegative_integer(u_max):
    with pytest.raises(ValueError, match="u_max"):
        psi_recursion(geometric_pmf(0.6), u_max)


# -- compound binomial bridge ----------------------------------------------------

CB_P = 0.4
CB_SIZES = DiscretePmf(np.array([0.0, 0.55, 0.3, 0.15]))


def test_converted_means_agree():
    claims = convert_cb_to_gd(CB_P, CB_SIZES)
    assert claims.mean == pytest.approx(CB_P * CB_SIZES.mean, rel=1e-14)


def test_compound_binomial_recursion_matches_linear_system():
    claims = convert_cb_to_gd(CB_P, CB_SIZES)
    psi = psi_recursion(claims, 12)
    assert psi[0] == CB_P * CB_SIZES.mean
    np.testing.assert_allclose(psi, psi_linear_system(claims, 12), rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "p, sizes",
    [(0.0, CB_SIZES), (1.0, CB_SIZES), (0.4, DiscretePmf(np.array([0.1, 0.9])))],
    ids=["p=0", "p=1", "zero-size-claim"],
)
def test_conversion_rejects_bad_inputs(p, sizes):
    with pytest.raises(ValueError):
        convert_cb_to_gd(p, sizes)
