"""One round of a library workload (``table_models`` or ``deep_sweep``).

The runner (run.py) starts this script in a fresh interpreter for every
round, so the program's coefficient and grid caches start cold each time,
and reads the JSON it writes to ``--out``:

    python3 bench/worker.py --workload table_models --seed 3 --out r.json [--trace 1] [--setup-only]

``ready`` is the CLOCK_MONOTONIC time at which import and input generation
finished; the runner subtracts its own spawn time to get the set-up time.
Each op is timed alone and then checked with tracing paused, so checks never
count towards a layer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gdruin  # noqa: E402
from gdruin import MixingDistribution, MpApproxConfig, NbmSpec  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

# Grid refinement and Monte Carlo size of the paper's tables.
TABLE_CFG = {"n": 500, "m": 1000}
TABLE_US = range(11)
# Reduced sizes for the harness self-test (--smoke): one law per family on a
# coarse grid, and a short sweep.
SMOKE_CFG = {"n": 50, "m": 100}
SMOKE_SWEEP_US = (10, 20, 30)
SMOKE_REFERENCE_U = 100
SMOKE_PK_US = (50, 100)


def _mixing(law: tuple) -> MixingDistribution:
    kind = law[0]
    if kind == "erlang":
        return MixingDistribution.erlang(law[1], law[2])
    if kind == "erlang_mixture":
        return MixingDistribution.erlang_mixture(law[1], law[2])
    if kind == "pareto":
        return MixingDistribution.pareto(law[1], law[2])
    return MixingDistribution.lognormal(law[1], law[2])


@dataclass
class Op:
    """A named unit of timed work plus the check of its own output.

    ``check(output, ctx)`` raises :class:`checks.CheckFailed`; ``ctx`` carries
    state across the ops of a round (previous sweep values, zero-clip count).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]


def table_model_ops(seed: int, smoke: bool) -> list[Op]:
    """One op per generated law: grid, then E, N1 and N2 at u = 0..10."""
    cfg = MpApproxConfig(seed=seed, **(SMOKE_CFG if smoke else TABLE_CFG))
    laws = inputs.table_laws(seed)
    ops = []
    for i, law in enumerate(laws[:4] if smoke else laws):
        mix = _mixing(law)

        def run(mix=mix):
            gdruin.mp_coefficients(mix, cfg, 0)
            exact = gdruin.psi_mp_exact_reference(mix, TABLE_US[-1])
            n1 = [gdruin.psi_mp_method1(mix, u, cfg) for u in TABLE_US]
            n2 = [gdruin.psi_mp_method2(mix, u, cfg) for u in TABLE_US]
            return exact, n1, n2

        def check(out, ctx, law=law):
            exact, n1, n2 = out
            mean = inputs.law_mean(law)
            checks.psi_vector("E", exact, mean)
            checks.psi_vector("N1", n1, mean)
            checks.estimates("N2", n2, mean)
            nbm = inputs.nbm_equivalent(law)
            if nbm is not None:
                spec = NbmSpec(*nbm)
                values = [gdruin.psi_nbm(spec, u) for u in TABLE_US]
                checks.agree("NBM", values, "E", exact, checks.NBM_E_TOL)
                ctx["zero_clipped"] += checks.zero_clipped(exact, values)

        ops.append(Op(f"{law[0]}#{i}", run, check))
    return ops


def deep_sweep_ops(seed: int, smoke: bool) -> list[Op]:
    """Erlang(2,3) at u = 10..500 (N1, N2, NBM), each level followed by a
    warm revisit of an earlier one, then E to 1000 and deep PK."""
    mix = MixingDistribution.erlang(2, 3.0)
    law = ("erlang", 2, 3.0)
    spec = NbmSpec(*inputs.nbm_equivalent(law))
    mean = inputs.law_mean(law)
    cfg = MpApproxConfig(seed=seed, **TABLE_CFG)
    sweep = SMOKE_SWEEP_US if smoke else inputs.DEEP_SWEEP_US
    ref_u = SMOKE_REFERENCE_U if smoke else inputs.DEEP_REFERENCE_U
    pk_us = SMOKE_PK_US if smoke else inputs.DEEP_PK_US
    ops = []

    for u in inputs.sweep_with_revisits(sweep):
        def run(u=u):
            return (
                gdruin.psi_mp_method1(mix, u, cfg),
                gdruin.psi_mp_method2(mix, u, cfg),
                gdruin.psi_nbm(spec, u),
            )

        def check(out, ctx, u=u):
            n1, n2, nbm = out
            checks.estimates("N2", [n2])
            if u in ctx["nbm"]:  # a revisit: values in [0, 1]
                checks.in_unit(f"N1, NBM (u={u})", [n1, nbm])
            else:
                for label, value in (("N1", n1), ("NBM", nbm)):
                    checks.next_value(label, ctx["prev"].get(label, mean), value, u)
                    ctx["prev"][label] = value
                ctx["nbm"][u] = nbm
            if u <= checks.NBM_E_MAX_U:
                exact = gdruin.psi_mp_exact_reference(mix, u)
                checks.agree("NBM", [nbm], "E", [exact[u]], checks.NBM_E_TOL)

        ops.append(Op(f"u={u}", run, check))

    def run_reference():
        exact = gdruin.psi_mp_exact_reference(mix, ref_u)
        claims = gdruin.mp_claims_pmf(mix, x_max=ref_u)
        return exact, [gdruin.psi_pk(claims, u) for u in pk_us]

    def check_reference(out, ctx):
        exact, pk = out
        checks.psi_vector("E", exact, mean)
        checks.agree("PK", pk, "E", [exact[u] for u in pk_us], checks.PK_E_TOL)
        us = sorted(ctx["nbm"])
        ctx["zero_clipped"] += checks.zero_clipped(
            [exact[u] for u in us], [ctx["nbm"][u] for u in us]
        )

    ops.append(Op("reference", run_reference, check_reference))
    return ops


WORKLOADS = {"table_models": table_model_ops, "deep_sweep": deep_sweep_ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="reduced sizes for the self-test")
    args = ap.parse_args(argv)

    ops = WORKLOADS[args.workload](args.seed, args.smoke)
    ready = time.monotonic()
    record: dict = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        ctx = {"prev": {}, "nbm": {}, "zero_clipped": 0}
        results = []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op, tracer.active = index, True
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a refused op is a failed op, not a crash
                ms = (time.perf_counter() - t0) * 1e3
                error = f"{type(exc).__name__}: {exc}"
                wrong = False
            else:
                ms = (time.perf_counter() - t0) * 1e3
                if tracer is not None:
                    tracer.active = False
                try:
                    op.check(out, ctx)
                    wrong = False
                except checks.CheckFailed as exc:
                    error, wrong = f"check: {exc}", True
            results.append({"name": op.name, "ms": ms, "error": error, "wrong": wrong})
        record.update(ops=results, zero_clipped=ctx["zero_clipped"])
        if tracer is not None:
            record["trace"] = tracer.dump()
    Path(args.out).write_text(json.dumps(record, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
