"""Release gate: nine numbered checks with hard tolerances and runtime caps.

Each check does its own computation from a cold start of this module, asserts
the advertised tolerance, and prints a single [PASS] line through the capture
bypass so a plain pytest run shows the scorecard.  Tolerances are absolute
unless a line says otherwise.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gdruin import (
    MixingDistribution,
    MpApproxConfig,
    NbmSpec,
    SimConfig,
    check_record_count_law,
    check_severity_law,
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
from gdruin.nbm import cbar_sequence
from gdruin.tables import REFERENCE_TABLES, TABLE_MIXINGS


def _passed(capsys, number: int, text: str, t0: float) -> None:
    with capsys.disabled():
        print(f"[PASS] criterion {number}: {text} ({time.perf_counter() - t0:.2f}s)")


def _residual(psi, claims) -> float:
    """Worst defect of the one-step balance psi(u) = sum f(y) psi(u+1-y) + sf(u)."""
    worst = 0.0
    for u in range(len(psi) - 1):
        s = math.fsum(claims.f(y) * psi[u + 1 - y] for y in range(u + 1))
        worst = max(worst, abs(s + claims.sf(u) - psi[u]))
    return worst


# -- 1: geometric claims, closed form ----------------------------------------------


def test_criterion_1_geometric_closed_form(capsys):
    t0 = time.perf_counter()
    for p in (0.55, 0.6, 0.75, 0.9):
        claims = geometric_pmf(p, tail_tol=1e-40)
        closed = np.array([((1 - p) / p) ** (u + 1) for u in range(31)])
        rec = psi_recursion(claims, 30)
        ladder = np.array([psi_pk(claims, u, tail_tol=1e-12) for u in range(31)])
        series = np.array([psi_nbm(NbmSpec((1.0,), p), u) for u in range(31)])
        for got in (rec, ladder, series):
            assert np.max(np.abs(got - closed)) <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _passed(capsys, 1, "recursion, ladder series, and coefficient series all "
            "match ((1-p)/p)^(u+1) to 1e-10 for four p values, u = 0..30", t0)


# -- 2..4: the three benchmark configurations --------------------------------------


def _check_table(name: str, spots: dict[str, dict[int, float]]) -> None:
    mix = TABLE_MIXINGS[name]
    ref = REFERENCE_TABLES[name]
    exact = psi_mp_exact_reference(mix, 10)
    assert np.max(np.abs(exact - np.array(ref["E"]))) <= 5e-5
    cfg = MpApproxConfig(seed=0)
    n1 = np.array([psi_mp_method1(mix, u, cfg) for u in range(11)])
    assert np.max(np.abs(n1 - np.array(ref["N1"]))) <= 5e-4
    for col, pairs in spots.items():
        vec = exact if col == "E" else n1
        tol = 5e-5 if col == "E" else 5e-4
        for u, digits in pairs.items():
            assert abs(vec[u] - digits) <= tol


def test_criterion_2_erlang_table(capsys):
    t0 = time.perf_counter()
    _check_table("erlang", {"N1": {1: 0.40775, 10: 0.00358}})
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _passed(capsys, 2, "Erlang(2,3) mixing: exact column to 5e-5, grid series "
            "(n = 500) to 5e-4 against the published digits", t0)


def test_criterion_3_pareto_table(capsys):
    t0 = time.perf_counter()
    _check_table("pareto", {"E": {0: 0.50000}, "N1": {5: 0.05996}})
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _passed(capsys, 3, "Pareto(3,1) mixing: exact column to 5e-5, grid series "
            "to 5e-4, heavy-tail grid within budget", t0)


def test_criterion_4_lognormal_table(capsys):
    t0 = time.perf_counter()
    _check_table("lognormal", {"E": {0: 0.60653}, "N1": {4: 0.12135}})
    assert abs(psi_mp_exact_reference(TABLE_MIXINGS["lognormal"], 0)[0]
               - math.exp(-0.5)) <= 5e-5
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _passed(capsys, 4, "Lognormal(-1,1) mixing: exact column to 5e-5 "
            "(psi(0) = exp(-1/2)), grid series to 5e-4", t0)


# -- 5: exponential mixing has closed-form coefficients ----------------------------


def test_criterion_5_exponential_mixing_analytic(capsys):
    t0 = time.perf_counter()
    ks = np.arange(1001, dtype=float)
    for beta in (1.5, 2.0, 3.0):
        mix = MixingDistribution.exponential(beta)
        for n in (10, 100, 500):
            cfg = MpApproxConfig(n=n, pmf_floor=1e-12, seed=0)
            seq = mp_coefficients(mix, cfg, 1000)
            c = math.exp(-beta / n) + (1.0 - math.exp(-beta / n)) / beta
            closed = (1.0 / beta) * c**ks
            assert np.max(np.abs(seq.cbar_n[:1001] - closed)) <= 1e-12
        for u in range(11):
            errs = [
                abs(psi_mp_method1(mix, u, MpApproxConfig(n=n, pmf_floor=1e-12, seed=0))
                    - beta ** -(u + 1))
                for n in (10, 100, 500)
            ]
            assert errs[1] <= errs[0] + 1e-15
            assert errs[2] <= errs[1] + 1e-15
    _passed(capsys, 5, "Exp(beta) mixing: coefficients match the closed form to "
            "1e-12 for k <= 1000; approximation error shrinks along n = 10, 100, "
            "500 for u <= 10, three beta values", t0)


# -- 6: Monte Carlo over the mixing index is calibrated ----------------------------


def test_criterion_6_method2_within_reported_error(capsys):
    t0 = time.perf_counter()
    runs = 100
    for name, mix in TABLE_MIXINGS.items():
        exact = psi_mp_exact_reference(mix, 10)
        hits = np.zeros(11, dtype=int)
        for run in range(runs):
            cfg = MpApproxConfig(n=500, m=1000, seed=run)
            for u in range(1, 11):
                est, se = psi_mp_method2(mix, u, cfg)
                if abs(est - exact[u]) <= 4.0 * se:
                    hits[u] += 1
        assert hits[1:].min() >= 0.95 * runs, (name, hits[1:].tolist())
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _passed(capsys, 6, "randomized grid series (m = 1000, n = 500) lands within "
            "4 reported standard errors of the exact value in at least 95 of 100 "
            "seeded runs for every u = 1..10 and all three mixing laws", t0)


# -- 7: the three evaluators agree on random mixture models ------------------------


def test_criterion_7_oracle_equivalence_on_random_mixtures(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    accepted = 0
    worst = 0.0
    while accepted < 50:
        size = int(rng.integers(1, 7))
        weights = tuple(rng.dirichlet(np.ones(size)))
        p = float(rng.uniform(0.45, 0.97))
        spec = NbmSpec(weights, p)
        claims = nbm_claims_pmf(spec, tail_tol=1e-14)
        if not 0.03 < claims.mean < 0.95:
            continue
        accepted += 1
        rec = psi_recursion(claims, 15)
        for u in range(16):
            a, b, c = rec[u], psi_pk(claims, u, tail_tol=1e-12), psi_nbm(spec, u)
            gap = max(abs(a - b), abs(a - c), abs(b - c))
            worst = max(worst, gap)
            assert gap <= 1e-8
    _passed(capsys, 7, f"recursion, ladder series, and coefficient series agree "
            f"within 1e-8 on 50 random mixture models, u = 0..15 "
            f"(worst gap {worst:.2e})", t0)


# -- 8: simulated paths obey the record laws ---------------------------------------


def test_criterion_8_simulator_distributional_laws(capsys):
    t0 = time.perf_counter()
    cases = {
        "Geometric(0.6)": geometric_pmf(0.6, tail_tol=1e-30),
        "MP(Erlang(2,3))": mp_claims_pmf(MixingDistribution.erlang(2, 3.0),
                                         tail_tol=1e-24),
    }
    for label, claims in cases.items():
        res = simulate_paths(
            SimConfig(claims=claims, replications=100_000, seed=1)
        )
        counts = check_record_count_law(res)
        assert counts.p_value > 0.01, (label, counts.p_value)
        pooled, _first = check_severity_law(res)
        assert pooled.p_value > 0.01, (label, pooled.p_value)
        assert res.identity_mismatches == 0
    _passed(capsys, 8, "at 1e5 replications the record counts and record "
            "severities pass chi-square against their laws (p > 0.01) and the "
            "maximum/record-sum identity holds on every path", t0)


# -- 9: structural invariants ------------------------------------------------------


def test_criterion_9_invariants(capsys):
    t0 = time.perf_counter()

    vectors = []
    for p in (0.55, 0.6, 0.75, 0.9):
        claims = geometric_pmf(p, tail_tol=1e-40)
        vectors.append((psi_recursion(claims, 30), claims))
    for mix in TABLE_MIXINGS.values():
        claims = mp_claims_pmf(mix, x_max=10)
        vectors.append((psi_mp_exact_reference(mix, 10), claims))
    for psi, claims in vectors:
        assert np.all(psi >= 0.0) and np.all(psi <= 1.0)
        assert np.all(np.diff(psi) <= 0.0)
        assert psi[0] == claims.mean
        assert _residual(psi, claims) < 1e-10

    spec = NbmSpec((0.2, 0.3, 0.5), 0.8)
    assert psi_nbm(spec, 0) == spec.claim_mean
    assert psi_pk(nbm_claims_pmf(spec, tail_tol=1e-14), 0) == pytest.approx(
        spec.claim_mean, abs=1e-15
    )

    seq = cbar_sequence(spec, 500)
    assert np.all(seq.cbar_n >= 0.0)
    assert np.all(np.diff(seq.cbar_n) <= 0.0)
    for mix in TABLE_MIXINGS.values():
        cbar = mp_coefficients(mix, MpApproxConfig(seed=0), 500).cbar_n
        assert np.all(cbar[:501] >= 0.0)
        assert np.all(np.diff(cbar[:501]) <= 0.0)

    _passed(capsys, 9, "psi vectors live in [0,1], never increase, start at the "
            "claim mean, and satisfy the one-step balance to 1e-10; coefficient "
            "sequences are nonnegative and nonincreasing", t0)
