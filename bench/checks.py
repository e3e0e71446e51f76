"""Output checks at the tolerances the package advertises.

Each check raises :class:`CheckFailed` naming what was wrong.  The structural
invariants (psi in [0, 1], nonincreasing, psi(0) equal to the mean claim) are
applied to the evaluators that promise them: the recursion (E), the ladder
series (PK), the coefficient series (NBM) and its grid version (N1).  Monte
Carlo columns (N2, SIM) only have to lie in [0, 1].
"""

from __future__ import annotations

import math

# The coefficient series agrees with the recursion within 1e-8 for u <= 40.
NBM_E_TOL = 1e-8
NBM_E_MAX_U = 40
# psi_pk's series remainder is below its tail_tol, 1e-10 by default.
PK_E_TOL = 1e-10
# psi(0) is set to the mean claim; allow the last bits of a float sum.
MEAN_TOL = 1e-12
# Bundled table references: 5e-5 for the exact column, 5e-4 for method 1.
TABLE_E_TOL = 5e-5
TABLE_N1_TOL = 5e-4

# Reference digits of the three bundled tables (Erlang(2,3), Pareto(3,1) and
# Lognormal(-1,1) mixing, u = 0..10), kept here so the program cannot move
# the target it is checked against.
REFERENCE_TABLES = {
    "erlang": {
        "E": [0.66667, 0.40741, 0.24280, 0.14358, 0.08469, 0.04992,
              0.02942, 0.01733, 0.01021, 0.00602, 0.00355],
        "N1": [0.66667, 0.40775, 0.24328, 0.14401, 0.08504, 0.05018,
               0.02960, 0.01746, 0.01030, 0.00607, 0.00358],
    },
    "pareto": {
        "E": [0.50000, 0.28757, 0.18050, 0.12014, 0.08348, 0.06001,
              0.04437, 0.03360, 0.02599, 0.02049, 0.01643],
        "N1": [0.50000, 0.28751, 0.18046, 0.12010, 0.08344, 0.05996,
               0.04432, 0.03356, 0.02595, 0.02045, 0.01639],
    },
    "lognormal": {
        "E": [0.60653, 0.38126, 0.25231, 0.17287, 0.12128, 0.08661,
              0.06272, 0.04597, 0.03404, 0.02545, 0.01919],
        "N1": [0.60653, 0.38124, 0.25238, 0.17294, 0.12135, 0.08666,
               0.06276, 0.04600, 0.03406, 0.02546, 0.01920],
    },
}


class CheckFailed(Exception):
    """An output of the program violates an advertised property."""


def in_unit(label, values):
    """Every value lies in [0, 1]."""
    for u, v in enumerate(values):
        if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
            raise CheckFailed(f"{label}[{u}] = {v!r} is outside [0, 1]")


def psi_vector(label, values, mean, mean_tol=MEAN_TOL):
    """psi(0..) in [0, 1], nonincreasing, starting at the mean claim."""
    values = [float(v) for v in values]
    in_unit(label, values)
    for u in range(1, len(values)):
        if values[u] > values[u - 1]:
            raise CheckFailed(f"{label} increases at u={u}: {values[u - 1]!r} -> {values[u]!r}")
    if abs(values[0] - mean) > mean_tol:
        raise CheckFailed(f"{label}(0) = {values[0]!r} but the mean claim is {mean!r}")


def next_value(label, prev, value, u):
    """psi(u) of a sweep: in [0, 1] and not above the previous surplus's value."""
    in_unit(f"{label}(u={u})", [value])
    if value > prev:
        raise CheckFailed(f"{label} increases at u={u}: {prev!r} -> {value!r}")


def estimates(label, pairs, mean=None):
    """Monte Carlo (estimate, se) pairs: estimates in [0, 1], se finite and >= 0.

    With ``mean`` given the first pair is psi(0), which must equal it exactly.
    """
    for est, se in pairs:
        if not (math.isfinite(se) and se >= 0.0):
            raise CheckFailed(f"{label} standard error {se!r} is not finite and >= 0")
    in_unit(label, [float(est) for est, _ in pairs])
    if mean is not None and abs(pairs[0][0] - mean) > MEAN_TOL:
        raise CheckFailed(f"{label}(0) = {pairs[0][0]!r} but the mean claim is {mean!r}")


def agree(label, values, ref_label, ref, tol):
    for u, (a, b) in enumerate(zip(values, ref)):
        if not abs(float(a) - float(b)) <= tol:
            raise CheckFailed(f"|{label} - {ref_label}| = {abs(a - b):.3e} > {tol:.0e} at index {u}")


def zero_clipped(exact, series) -> int:
    """Exact values that are exactly 0.0 where the coefficient series is positive."""
    return sum(1 for e, s in zip(exact, series) if float(e) == 0.0 and float(s) > 0.0)
