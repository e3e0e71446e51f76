"""Monte Carlo simulation of the surplus process, used as a model oracle.

The loss process Z(t) = sum_{i<=t} Y_i - t does not depend on the initial
surplus, so one engine serves every u: ruin at surplus u is the event
max_{t>=1} Z(t) >= u, the running maximum of Z increases only at its record
times (ties count as records, with increment zero), and the theory says the
number of records is Geometric(1-mu) while the increments are iid with the
equilibrium law of the claims.  The simulator tracks all of that per path
and exposes chi-square checks against those laws.

One pass therefore serves every surplus level.  Each path's final running
maximum (its level when the stop rule or the horizon ends it) goes into
``SimResult.level_hist``.  Ruin at u >= 1 is a final level of at least u and
ruin at u = 0 is at least one record, so ``SimResult.psi_at(u)`` reads the
ruin count at any u from ``level_hist`` or ``k_hist[0]``.  The scalar walk
`simulate_single` tracks first passage at u itself, as the oracle.

Paths stop once a new record is provably unlikely: when the gap between the
running maximum and the current position reaches B = min{d : psi(d) < 1e-9},
the chance of any further record is below 1e-9 (psi computed by the exact
recursion).  The claim distribution must therefore carry enough stored
support to certify that bound; build it with a small tail tolerance.

Replications are processed in fixed chunks, each with its own counter-based
generator stream derived from (seed, chunk index), so results are
reproducible and independent of chunk scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DiscretePmf, _poisson_sum, _whole_number, equilibrium
from .recursion import _ladder, _psi

__all__ = [
    "SimConfig",
    "SimResult",
    "PathStats",
    "GofReport",
    "simulate_paths",
    "simulate_single",
    "check_record_count_law",
    "check_severity_law",
]

_CHUNK = 4096
_WINDOW = 64
_STOP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation request: claims and sampling plan; one run serves every surplus."""

    claims: DiscretePmf
    replications: int
    horizon: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("replications", 1), ("horizon", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name, least))
        if not self.claims.mean < 1.0:
            raise ValueError("net profit condition requires mean < 1")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregates over all replications of one :class:`SimConfig`."""

    config: SimConfig
    censored: int
    stop_bound: int
    k_hist: np.ndarray
    level_hist: np.ndarray
    record_severity_hist: np.ndarray
    first_record_severity_hist: np.ndarray
    identity_mismatches: int

    def _count(self, u: int) -> int:
        """Paths ruined from surplus u: a final running maximum of at least u
        for u >= 1, at least one record for u = 0."""
        u = _whole_number(u, "u")
        if u == 0:
            return self.config.replications - int(self.k_hist[0])
        return int(self.level_hist[u:].sum())

    def psi_at(self, u: int) -> tuple[float, float]:
        """Estimate of psi(u) and its binomial standard error, floored at 1/r,
        for any surplus u."""
        r = self.config.replications
        psi_hat = self._count(u) / r
        return psi_hat, math.sqrt(max(psi_hat * (1.0 - psi_hat), 1.0 / r) / r)


@dataclass
class PathStats:
    """One path from :func:`simulate_single`, for inspection and testing."""

    ruined: bool
    tau: int | None
    severity: int | None
    record_times: list[int] = field(default_factory=list)
    record_severities: list[int] = field(default_factory=list)

    @property
    def record_count(self) -> int:
        return len(self.record_times)


def _stop_bound(claims: DiscretePmf) -> int:
    """Smallest d with psi(d) < 1e-9, certified by the exact recursion.

    A truncated claim vector caps how deep the recursion can certify, so a
    tail tolerance that is too loose is rejected here rather than silently
    biasing the stopping rule; a complete pmf extends one solver in place.
    """
    solver = _ladder(claims)
    u_max = claims.support_max + 1
    while True:
        psi = _psi(claims, solver, u_max)
        hits = np.nonzero(psi < _STOP_TOL)[0]
        if hits.size:
            return int(hits[0])
        if claims.tail_mass > 0.0:
            raise ValueError(
                f"psi({u_max}) is still {psi[-1]:.2e} at the edge of the stored claim "
                f"support; rebuild the claims with a smaller tail tolerance so the "
                f"stopping rule can certify psi < {_STOP_TOL:.0e}"
            )
        if u_max > 1 << 20:
            raise ValueError(
                "psi decays too slowly for the stopping rule; no certified bound "
                f"below {_STOP_TOL:.0e} within 2^20 surplus levels"
            )
        u_max *= 2


def _grow_add(hist: np.ndarray, counts: np.ndarray) -> np.ndarray:
    if counts.size > hist.size:
        hist = np.pad(hist, (0, counts.size - hist.size))
    hist[: counts.size] += counts
    return hist


def simulate_paths(cfg: SimConfig) -> SimResult:
    """Run all replications and aggregate ruin, record, and severity data."""
    claims = cfg.claims
    b = _stop_bound(claims)
    cdf = np.minimum(np.cumsum(claims.pmf), 1.0)

    censored = 0
    mismatches = 0
    k_hist = np.zeros(1, dtype=np.int64)
    level_hist = np.zeros(1, dtype=np.int64)
    sev_hist = np.zeros(1, dtype=np.int64)
    first_hist = np.zeros(1, dtype=np.int64)

    remaining = cfg.replications
    chunk_index = 0
    while remaining > 0:
        size = min(_CHUNK, remaining)
        remaining -= size
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((cfg.seed, chunk_index)))
        )
        chunk_index += 1

        z = np.zeros(size, dtype=np.int64)  # current Z(t)
        lvl = np.zeros(size, dtype=np.int64)  # running max of Z, = sum of severities
        k = np.zeros(size, dtype=np.int64)  # records so far
        sev_sum = np.zeros(size, dtype=np.int64)
        steps = 0

        while z.size:
            unif = rng.random((z.size, _WINDOW))
            y = np.searchsorted(cdf, unif, side="right")
            np.clip(y, 0, claims.support_max, out=y)
            zp = z[:, None] + np.cumsum(y - 1, axis=1, dtype=np.int64)
            zmax = np.maximum.accumulate(zp, axis=1)

            # running max just before each step: records are steps that reach it
            prev = np.empty_like(zp)
            prev[:, 0] = lvl
            np.maximum(lvl[:, None], zmax[:, :-1], out=prev[:, 1:])
            rec = zp >= prev
            inc = np.where(rec, zp - prev, 0)

            new_first = rec.any(axis=1) & (k == 0)
            if new_first.any():
                j0 = np.argmax(rec[new_first], axis=1)
                first_vals = inc[new_first, j0]
                first_hist = _grow_add(first_hist, np.bincount(first_vals))

            all_sev = inc[rec]
            if all_sev.size:
                sev_hist = _grow_add(sev_hist, np.bincount(all_sev))
            k += rec.sum(axis=1)
            sev_sum += inc.sum(axis=1)

            z = zp[:, -1]
            np.maximum(lvl, zmax[:, -1], out=lvl)
            steps += _WINDOW

            done = (lvl - z) >= b
            if steps >= cfg.horizon:
                censored += int((~done).sum())
                done = np.ones_like(done)
            if done.any():
                k_hist = _grow_add(k_hist, np.bincount(k[done]))
                level_hist = _grow_add(level_hist, np.bincount(lvl[done]))
                mismatches += int((sev_sum[done] != lvl[done]).sum())
                keep = ~done
                z, lvl, k, sev_sum = z[keep], lvl[keep], k[keep], sev_sum[keep]

    return SimResult(
        config=cfg,
        censored=censored,
        stop_bound=b,
        k_hist=k_hist,
        level_hist=level_hist,
        record_severity_hist=sev_hist,
        first_record_severity_hist=first_hist,
        identity_mismatches=mismatches,
    )


def simulate_single(
    claims: DiscretePmf, u: int, rng: np.random.Generator, horizon: int = 100_000
) -> PathStats:
    """Scalar reference walk of one path; the vectorized engine mirrors this."""
    b = _stop_bound(claims)
    cdf = np.minimum(np.cumsum(claims.pmf), 1.0)
    z = 0
    lvl = 0
    ruined = False
    tau = None
    severity = None
    stats = PathStats(ruined=False, tau=None, severity=None)
    for t in range(1, horizon + 1):
        y = int(np.searchsorted(cdf, rng.random(), side="right"))
        z += min(y, claims.support_max) - 1
        if z >= lvl:
            stats.record_times.append(t)
            stats.record_severities.append(z - lvl)
            lvl = z
        if not ruined and z >= u:
            ruined, tau, severity = True, t, z - u
        if lvl - z >= b:
            break
    stats.ruined, stats.tau, stats.severity = ruined, tau, severity
    return stats


# -- distributional checks ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class GofReport:
    """Chi-square comparison of an empirical histogram with a model law."""

    test: str
    statistic: float
    dof: int
    p_value: float
    observed: np.ndarray
    expected: np.ndarray


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi^2_dof > x) = Q(dof/2, x/2) as positive terms, with t = x/2:
    e^{-t} sum_{j < dof/2} t^j / j! for even dof, and for odd dof
    erfc(sqrt t) + e^{-t} sum_{j < (dof-1)/2} t^{j+1/2} / Gamma(j + 3/2)."""
    t = 0.5 * max(x, 0.0)
    m = dof // 2
    if dof % 2 == 0:
        return float(_poisson_sum(np.ones(m), t))
    if m == 0:
        return math.erfc(math.sqrt(t))
    # t^{j+1/2} / Gamma(j + 3/2) = sqrt(t) c_j t^j / j!, c_j = j! / Gamma(j + 3/2) = c_{j-1} j / (j + 1/2)
    j = np.arange(1.0, m)
    c = np.cumprod(np.r_[2.0 / math.sqrt(math.pi), j / (j + 0.5)])
    return math.erfc(math.sqrt(t)) + math.sqrt(t) * float(_poisson_sum(c, t))


def _chi_square(test: str, observed: np.ndarray, expected: np.ndarray) -> GofReport:
    """Merge thin bins (expected < 5) into the last one, then test."""
    obs = observed.astype(float)
    exp = expected.astype(float)
    keep_obs: list[float] = []
    keep_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            keep_obs.append(acc_o)
            keep_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and keep_exp:
        keep_obs[-1] += acc_o
        keep_exp[-1] += acc_e
    obs = np.asarray(keep_obs)
    exp = np.asarray(keep_exp)
    if obs.size < 2:
        raise ValueError("not enough occupied bins for a chi-square test")
    exp *= obs.sum() / exp.sum()
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return GofReport(
        test=test,
        statistic=stat,
        dof=obs.size - 1,
        p_value=_chi2_sf(stat, obs.size - 1),
        observed=obs,
        expected=exp,
    )


def check_record_count_law(result: SimResult, claims: DiscretePmf) -> GofReport:
    """Record counts against Geometric(1 - mu): f(k) = (1-mu) mu^k."""
    mu = claims.mean
    obs = result.k_hist.astype(float)
    r = obs.sum()
    kk = np.arange(obs.size, dtype=float)
    exp = r * (1.0 - mu) * mu**kk
    # the last observed bin doubles as ">= k_max", so give it the complement mass
    exp[-1] = r * mu ** (obs.size - 1)
    return _chi_square("record count ~ Geometric(1-mu)", obs, exp)


def check_severity_law(result: SimResult, claims: DiscretePmf) -> list[GofReport]:
    """Record increments against the equilibrium law, two ways.

    The pooled histogram of all record severities is compared with
    f_e(x) = P(Y > x)/mu; the first-record histogram, with paths that never
    record counted as an extra cell, is compared with the unconditional law
    (P(first severity = w) = P(Y > w), no-record probability 1 - mu).
    """
    mu = claims.mean

    obs = result.record_severity_hist.astype(float)
    exp = obs.sum() * equilibrium(claims, obs.size)
    pooled = _chi_square("record severity ~ equilibrium law", obs, exp)

    r = float(result.config.replications)
    first = result.first_record_severity_hist.astype(float)
    obs_first = np.append(first, r - first.sum())  # paths with no record at all
    exp_first = r * np.append(mu * equilibrium(claims, first.size), 1.0 - mu)
    unconditional = _chi_square(
        "first record severity ~ claim survival", obs_first, exp_first
    )
    return [pooled, unconditional]
