"""Seeded inputs for the three benchmark workloads.

Every input the program sees is derived here from the workload seed, with the
standard library generator only, so the runner (run.py) can build CLI input files
without importing numpy.  The same seed always gives the same inputs.

Parameter ranges and why they were chosen
-----------------------------------------

``LAW_MEAN = (0.4, 0.85)``
    Mean of every mixing law, i.e. the mean claim.  The net profit condition
    needs a mean below 1; the range brackets the paper's tables (0.5 to 0.67)
    on both sides so lightly and heavily loaded laws both occur.

``ERLANG_SHAPES = 1..4`` and ``MIXTURE_COMPONENTS = 3``
    Erlang-family grids stop where the survival drops below 1e-16, so shape
    and mean set the grid length J; this range spans J from a few thousand
    points to past the K = 2^14 coefficient table, i.e. both sides of the
    O(K * min(K, J)) renewal cost.

``PARETO_ALPHA = (2.8, 4.5)`` with theta = mean * (alpha - 1)
    Kept inside the 2M-point grid budget: at the cap (rate 4000 for n = 500)
    the survival (theta / (theta + 4000))^alpha must be below the 1e-9 the
    grid code certifies; the worst law of these ranges (alpha = 2.8,
    mean 0.85, theta = 1.53) has 2.7e-10.
    Every such law still runs into the cap, as the paper's Pareto(3, 1) does.
    ``_pareto`` re-checks the bound for each generated law.

``LOGNORMAL_S = (0.5, 1.2)`` with m = log(mean) - s^2 / 2
    The same grid budget bounds s: at s = 1.2 the survival at the cap is
    at most 1.1e-14; at s = 0.5 the grid has 10k to 25k points.

``CLI_MEAN = (0.57, 0.6)``, ``CLI_*_SIZES``, ``CLI_NBM_WEIGHTS``, ``CLI_JITTER = 0.2``
    The CLI models are seeded perturbations of fixed reference models: every
    reference mass is scaled by a factor in [0.8, 1.2] and the mean claim is
    drawn from a narrow range.  The simulator, which is most of each ``all``
    run, stops a path once it is B below its maximum, with B set by how fast
    psi decays; B and the path length grow quickly with the mean and the
    claim variance.  A pmf on 0..4 with mean 0.88 took 9 s per ``all`` op,
    and freely drawn pmfs on 0..6 with means 0.5 to 0.65 took 2.5 to 4.6 s,
    depending on the seed.  The narrow ranges keep the op times close
    together on every seed.  The mixed Poisson
    CLI ops use the paper's fixed ``erlang:2,3`` and ``lognormal:-1,1``; the
    second fails at the seed commit and stays in the workload (see README.md
    for both choices).

Within each family the laws are stratified (one draw per equal-width stratum
of the mean, strata of the second parameter shuffled), so every seed covers
the whole range and the workload's cost does not swing with the seed.
"""

from __future__ import annotations

import math
import random

LAWS_PER_FAMILY = 12
LAW_MEAN = (0.4, 0.85)
ERLANG_SHAPES = (1, 2, 3, 4)
MIXTURE_COMPONENTS = 3
PARETO_ALPHA = (2.8, 4.5)
LOGNORMAL_S = (0.5, 1.2)
CLI_MEAN = (0.57, 0.6)
CLI_GD_SIZES = (0.4, 0.3, 0.2, 0.1)
CLI_CB_SIZES = (0.5, 0.25, 0.15, 0.1)
CLI_NBM_WEIGHTS = (0.3, 0.4, 0.3)
CLI_JITTER = 0.2

# Grid budget of the default MpApproxConfig: 2M points at n = 500.
GRID_CAP_RATE = 2_000_000 / 500
GRID_CAP_SF = 1e-9

DEEP_SWEEP_US = tuple(range(10, 501, 10))
DEEP_REFERENCE_U = 1000
DEEP_PK_US = (100, 250, 500, 1000)


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw inside each of `count` equal strata of [0, 1), shuffled."""
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def _span(lo_hi: tuple[float, float], q: float) -> float:
    lo, hi = lo_hi
    return lo + (hi - lo) * q


def _dirichlet(rng: random.Random, size: int) -> list[float]:
    raw = [rng.expovariate(1.0) for _ in range(size)]
    total = math.fsum(raw)
    return [v / total for v in raw]


def _pareto(mean: float, alpha: float) -> tuple:
    theta = mean * (alpha - 1.0)
    if (theta / (theta + GRID_CAP_RATE)) ** alpha >= GRID_CAP_SF:
        raise ValueError(f"pareto({alpha}, {theta}) is past the grid budget")
    return ("pareto", alpha, theta)


def sweep_with_revisits(sweep: tuple[int, ...]) -> list[int]:
    """The sweep in ascending order, each level followed by a warm revisit.

    The revisit is a level already swept, so it never needs a larger
    coefficient table.  Revisits spread warm reads of every cost over the
    whole round, so a latency percentile does not rest on the few ops that
    happen to run in one second of it.  The picks follow the golden-ratio
    sequence, which covers the swept levels evenly; they do not depend on the
    seed, so no seed revisits cheaper levels than another.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    order = []
    for i, u in enumerate(sweep):
        order += [u, sweep[int(((i + 1) * golden) % 1.0 * (i + 1))]]
    return order


def table_laws(seed: int) -> list[tuple]:
    """Mixing laws for ``table_models``: equal shares of four families.

    Each law is a tuple ``(kind, *params)``: ``("erlang", shape, beta)``,
    ``("erlang_mixture", weights, beta)``, ``("pareto", alpha, theta)`` or
    ``("lognormal", m, s)``.  Families are interleaved so memory grows evenly
    over the run.
    """
    rng = random.Random(f"table_models:{seed}")
    k = LAWS_PER_FAMILY
    families: list[list[tuple]] = []

    means, shapes = _strata(rng, k), _strata(rng, k)
    families.append([
        ("erlang", s, s / _span(LAW_MEAN, q))
        for q, s in zip(means, (ERLANG_SHAPES[int(v * len(ERLANG_SHAPES))] for v in shapes))
    ])

    means = _strata(rng, k)
    mixtures = []
    for q in means:
        w = _dirichlet(rng, MIXTURE_COMPONENTS)
        shape_mean = math.fsum((i + 1) * wi for i, wi in enumerate(w))
        mixtures.append(("erlang_mixture", tuple(w), shape_mean / _span(LAW_MEAN, q)))
    families.append(mixtures)

    means, alphas = _strata(rng, k), _strata(rng, k)
    families.append([
        _pareto(_span(LAW_MEAN, q), _span(PARETO_ALPHA, a)) for q, a in zip(means, alphas)
    ])

    means, sds = _strata(rng, k), _strata(rng, k)
    lognormals = []
    for q, v in zip(means, sds):
        s = _span(LOGNORMAL_S, v)
        lognormals.append(("lognormal", math.log(_span(LAW_MEAN, q)) - 0.5 * s * s, s))
    families.append(lognormals)

    return [fam[i] for i in range(k) for fam in families]


def law_mean(law: tuple) -> float:
    """Mean of a generated mixing law, computed independently of the program."""
    kind = law[0]
    if kind == "erlang":
        return law[1] / law[2]
    if kind == "erlang_mixture":
        return math.fsum((i + 1) * w for i, w in enumerate(law[1])) / law[2]
    if kind == "pareto":
        return law[2] / (law[1] - 1.0)
    if kind == "lognormal":
        return math.exp(law[1] + 0.5 * law[2] ** 2)
    raise ValueError(f"unknown law kind {kind!r}")


def nbm_equivalent(law: tuple) -> tuple[tuple[float, ...], float] | None:
    """(weights, p) of the NBM law equal to an Erlang-family mixed Poisson law."""
    if law[0] == "erlang":
        shape, beta = law[1], law[2]
        return tuple([0.0] * (shape - 1) + [1.0]), beta / (beta + 1.0)
    if law[0] == "erlang_mixture":
        return tuple(law[1]), law[2] / (law[2] + 1.0)
    return None


def _perturbed(rng: random.Random, base: tuple[float, ...]) -> list[float]:
    raw = [w * (1.0 + CLI_JITTER * (2.0 * rng.random() - 1.0)) for w in base]
    total = math.fsum(raw)
    return [w / total for w in raw]


def cli_models(seed: int) -> dict:
    """Claim models for ``cli_runs``: seeded perturbations of reference models.

    ``gd``: pmf on 0..4, a size law on 1..4 thinned to the target mean.
    ``cb``: claim probability and a size pmf on 1..4.  ``nbm``: weights on
    1..3 with p set by the target mean.  Each entry carries its exact mean
    claim.  The CLI's mixed Poisson ops use the paper's fixed laws.
    """
    rng = random.Random(f"cli_runs:{seed}")
    means = [_span(CLI_MEAN, q) for q in _strata(rng, 3)]

    size = _perturbed(rng, CLI_GD_SIZES)
    size_mean = math.fsum((i + 1) * g for i, g in enumerate(size))
    occur = means[0] / size_mean
    gd_pmf = [1.0 - occur] + [occur * g for g in size]

    cb_size = _perturbed(rng, CLI_CB_SIZES)
    cb_p = means[1] / math.fsum((i + 1) * g for i, g in enumerate(cb_size))

    nbm_w = _perturbed(rng, CLI_NBM_WEIGHTS)
    count_mean = math.fsum((i + 1) * w for i, w in enumerate(nbm_w))
    nbm_p = count_mean / (count_mean + means[2])

    return {
        "gd": {"pmf": gd_pmf, "mean": math.fsum(x * f for x, f in enumerate(gd_pmf))},
        "cb": {
            "pmf": [0.0] + cb_size,
            "p": cb_p,
            "mean": cb_p * math.fsum((i + 1) * g for i, g in enumerate(cb_size)),
        },
        "nbm": {"weights": nbm_w, "p": nbm_p, "mean": count_mean * (1.0 - nbm_p) / nbm_p},
    }
