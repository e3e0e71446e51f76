"""Monte Carlo simulation of the surplus process, used as a model oracle.

The loss process Z(t) = sum_{i<=t} Y_i - t does not depend on the initial
surplus, so one engine serves every u: ruin at surplus u is the event
max_{t>=1} Z(t) >= u, the running maximum of Z increases only at its record
times (ties count as records, with increment zero), and the theory says the
number of records is Geometric(1-mu) while the increments are iid with the
equilibrium law of the claims.  The simulator tracks all of that per path
and exposes chi-square checks against those laws.

One pass therefore serves every surplus level.  Each path's final running
maximum (its level when the stop rule or the horizon ends it; the horizon
is the constant ``SimConfig.horizon``, 100,000 steps) goes into
``SimResult.level_hist``.  Ruin at u >= 1 is a final level of at least u and
ruin at u = 0 is at least one record, so ``SimResult.psi_at(u)`` reads the
ruin count at any u from ``level_hist`` or ``k_hist[0]``.  The scalar walk
`simulate_single` tracks first passage at u itself, as the oracle.

Paths stop once a new record is provably unlikely: when the gap between the
running maximum and the current position reaches B = min{d : psi(d) < 1e-9},
the chance of any further record is below 1e-9 (psi computed by the exact
recursion).  The walk puts what the stored masses leave (the declared tail and
rounding) on the last point; that drawn law has no tail, so the recursion
certifies its B at any depth, at any tail tolerance.  `SimConfig` builds the
drawn cdf and B once, as its fields ``cdf`` and ``stop_bound``; both walks read
them from the config.

Replications are processed in fixed chunks, each with its own counter-based
generator stream derived from (seed, chunk index), so results are
reproducible and independent of chunk scheduling.

A chunk of up to 4,096 paths advances in windows of 64 steps, in four
buffers allocated once per call: the window's uniforms, their bucket
indices, and two int32 arrays of 65 columns.

- Claims are drawn through a table of 2^16 buckets, built once per call
  (`distributions._claim_table`, which method 2's NegBin blocks share).
  Bucket b holds the claim that every u in [b, b + 1) / 2^16 draws, or -1
  when a cdf value lies strictly inside it.  u * 2^16 is exact, so a
  table read gives searchsorted(cdf, u, "right"), and only the draws in a
  -1 bucket are searched: O(1) expected per step instead of O(log S).
- The walk is stored as offsets from L, the running maximum at the
  window's start: R_0 = 0 and R_j = Z_j - L, with M its running maximum.
  Step j is a record iff R_j == M_j, with increment M_j - M_{j-1}; the
  window ends at level L + M_64 and position L + R_64.  A live path starts
  a window less than B below L and moves by -1 to support_max - 1 per step,
  so every offset is within B + 64 (support_max + 1) of zero.  A claim vector
  has at most 2^24 points and B is at most max(2^21, support_max + 1) (the
  recursion's 2^20-level budget), so that is below 2^31 and the walk is int32.
- Records are a small fraction of the steps, so they are read sparsely:
  one ``flatnonzero`` of R == M, and bincounts over its rows give each
  path's record count and severity sum and the two severity histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .distributions import (
    DiscretePmf,
    _claim_table,
    _draw_claims,
    _poisson_sum,
    _whole_number,
    equilibrium,
)
from .recursion import psi_recursion

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
# Claim points the simulator draws at most, so the int32 walk holds every offset
# (the stop bound's O(S^2) residual check is out of reach long before 2^25).
_MAX_SUPPORT = 1 << 24


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation request: claims and sampling plan; one run serves every surplus.

    Every path stops after at most ``horizon`` steps, a constant of the
    simulator; a path still short of its stop rule there is censored.  The
    drawn law is built once, here: ``cdf`` (`_drawn_cdf`, read-only) and
    ``stop_bound`` (`_stop_bound`).  Claims on more than 2^24 points are
    refused first (ValueError).
    """

    horizon: ClassVar[int] = 100_000

    claims: DiscretePmf
    replications: int
    seed: int = 0
    cdf: np.ndarray = field(init=False, repr=False)
    stop_bound: int = field(init=False)

    def __post_init__(self):
        for name, least in (("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name, least))
        if self.claims.pmf.size > _MAX_SUPPORT:
            raise ValueError(
                f"the simulator draws claims on at most 2^24 points, got {self.claims.pmf.size}"
            )
        if not self.claims.mean < 1.0:
            raise ValueError("net profit condition requires mean < 1")
        cdf = _drawn_cdf(self.claims)
        cdf.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "stop_bound", _stop_bound(cdf))


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregates over all replications of one :class:`SimConfig`."""

    config: SimConfig
    censored: int
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


def _drawn_cdf(claims: DiscretePmf) -> np.ndarray:
    """Cdf of the law the walk draws: the stored masses, with what they leave (the
    declared tail and rounding) on the last point, so it ends at exactly 1.0."""
    return np.r_[np.minimum(np.cumsum(claims.pmf[:-1]), 1.0), 1.0]


def _stop_bound(cdf: np.ndarray) -> int:
    """Smallest d with psi(d) < 1e-9 on the law of ``cdf``, certified by the exact
    recursion.

    The drawn law (`_drawn_cdf`) has no tail, so the recursion reads it at any
    depth, and up to the rounding of its cdf it is stochastically no larger than
    the claims, so its bound is no larger.  The depth doubles from the support's
    size until psi gets there, or raises RuntimeError, a spent budget, past 2^20
    levels.
    """
    drawn = DiscretePmf(np.diff(cdf, prepend=0.0))
    u_max = cdf.size
    while True:
        hits = np.nonzero(psi_recursion(drawn, u_max) < _STOP_TOL)[0]
        if hits.size:
            return int(hits[0])
        if u_max > 1 << 20:
            raise RuntimeError(
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
    b, cdf = cfg.stop_bound, cfg.cdf
    table = _claim_table(cdf)

    # per-window buffers, reused by every window of every chunk
    rows = min(_CHUNK, cfg.replications)
    unif_buf = np.empty((rows, _WINDOW))
    index_buf = np.empty((rows, _WINDOW), dtype=np.intp)
    off_buf = np.empty((rows, _WINDOW + 1), dtype=np.int32)  # Z - L, column 0 = 0
    top_buf = np.empty((rows, _WINDOW + 1), dtype=np.int32)  # running max of Z - L

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
        lvl = np.zeros(size, dtype=np.int64)  # running max L of Z, = sum of severities
        k = np.zeros(size, dtype=np.int64)  # records so far
        sev_sum = np.zeros(size, dtype=np.int64)
        steps = 0

        while z.size:
            n = z.size
            unif, off, top = unif_buf[:n], off_buf[:n], top_buf[:n]
            rng.random(out=unif)
            # the claims go to top's memory, which is free until the running max
            draws = top.reshape(-1)[: n * _WINDOW].reshape(n, _WINDOW)
            _draw_claims(table, cdf, unif, index_buf[:n], draws)
            np.subtract(draws, 1, out=off[:, 1:])
            off[:, 0] = z - lvl
            np.cumsum(off, axis=1, out=off)
            off[:, 0] = 0
            np.maximum.accumulate(off, axis=1, out=top)

            # a step is a record iff it reaches the running max, its increment
            # is how far it lifts it; records are rare, so read them sparsely
            path, step = np.divmod(np.flatnonzero(off[:, 1:] == top[:, 1:]), _WINDOW)
            inc = top[path, step + 1] - top[path, step]
            sev_hist = _grow_add(sev_hist, np.bincount(inc))
            # path is sorted, so a path's first record here is where path changes;
            # it is the path's first record of all while k is still 0
            first = np.flatnonzero(np.diff(path, prepend=-1))
            first = first[k[path[first]] == 0]
            first_hist = _grow_add(first_hist, np.bincount(inc[first]))
            k += np.bincount(path, minlength=n)
            # float sums of whole numbers below 2^53 are exact
            sev_sum += np.bincount(path, weights=inc, minlength=n).astype(np.int64)

            z = lvl + off[:, -1]
            lvl += top[:, -1]
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
        k_hist=k_hist,
        level_hist=level_hist,
        record_severity_hist=sev_hist,
        first_record_severity_hist=first_hist,
        identity_mismatches=mismatches,
    )


def simulate_single(cfg: SimConfig, u: int, rng: np.random.Generator) -> PathStats:
    """Scalar reference walk of one path of ``cfg``'s law from surplus u, up to
    ``SimConfig.horizon`` steps; ``cfg.replications`` and ``cfg.seed`` play no
    part.  The vectorized engine mirrors this."""
    b, cdf = cfg.stop_bound, cfg.cdf
    z = 0
    lvl = 0
    ruined = False
    tau = None
    severity = None
    stats = PathStats(ruined=False, tau=None, severity=None)
    for t in range(1, SimConfig.horizon + 1):
        y = int(np.searchsorted(cdf, rng.random(), side="right"))
        z += y - 1
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


def check_record_count_law(result: SimResult) -> GofReport:
    """Record counts against Geometric(1 - mu): f(k) = (1-mu) mu^k, mu the mean of
    the run's claims."""
    mu = result.config.claims.mean
    obs = result.k_hist.astype(float)
    r = obs.sum()
    kk = np.arange(obs.size, dtype=float)
    exp = r * (1.0 - mu) * mu**kk
    # the last observed bin doubles as ">= k_max", so give it the complement mass
    exp[-1] = r * mu ** (obs.size - 1)
    return _chi_square("record count ~ Geometric(1-mu)", obs, exp)


def check_severity_law(result: SimResult) -> list[GofReport]:
    """Record increments against the equilibrium law, two ways.

    The pooled histogram of all record severities is compared with
    f_e(x) = P(Y > x)/mu; the first-record histogram, with paths that never
    record counted as an extra cell, is compared with the unconditional law
    (P(first severity = w) = P(Y > w), no-record probability 1 - mu), Y the
    run's claims.
    """
    claims = result.config.claims
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
