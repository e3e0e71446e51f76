"""Command line front end.

Verbs select the method, flags select the claim model:

    gdruin exact --mix erlang:2,3 --u-max 10
    gdruin all --mix lognormal:-1,1 --format json --out run.json
    gdruin nbm --weights 0.5,0.5 --p 0.8
    gdruin simulate --pmf-file claims.csv --reps 200000 --seed 42
    gdruin tables --out results/

``all`` runs every method valid for the model and emits one combined table.
The claim model is inferred from the flags: ``--mix`` is mixed Poisson,
``--weights`` (with ``--p``) NBM, ``--pmf-file`` compound binomial with ``--p``
and Gerber-Dickson without.  Each flag is declared once, in ``_FLAGS``; flag
values can also come from a ``--config`` file of KEY=VALUE lines whose keys
are the flag names.  Explicit flags win over the file, the file wins over
built-in defaults.  Output files are byte-identical for identical jobs and
seeds; runtimes go to stderr.

Exit codes: 0 success, 2 validation problem, 3 numeric budget exhausted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

from .distributions import (
    DiscretePmf,
    MixingDistribution,
    NbmSpec,
    _whole_number,
    mp_claims_pmf,
    nbm_claims_pmf,
)
from .mixed_poisson import (
    MpApproxConfig,
    mp_coefficients,
    psi_mp_method1,
    psi_mp_method2,
)
from .nbm import psi_nbm
from .pollaczek import psi_pk
from .recursion import convert_cb_to_gd, psi_recursion
from .simulate import SimConfig, simulate_paths
from .tables import ResultTable, max_abs_delta, reproduce_tables
from . import __version__

__all__ = ["JobSpec", "run", "main"]

_METHOD_COLUMN = {
    "exact": "E",
    "pk": "PK",
    "nbm": "NBM",
    "mp1": "N1",
    "mp2": "N2",
    "simulate": "SIM",
}
_ERR_COLUMN = {"N1": "err1", "N2": "err2", "SIM": "err_sim"}
_COLUMN_ORDER = ["u", "E", "PK", "NBM", "N1", "err1", "N2", "err2", "SIM", "err_sim"]
_ALL_METHODS = {
    "gd": ["exact", "pk", "simulate"],
    "cb": ["exact", "pk", "simulate"],
    "nbm": ["exact", "pk", "nbm", "simulate"],
    "mp": ["exact", "mp1", "mp2", "simulate"],
}

@dataclass
class JobSpec:
    """One resolved unit of CLI work."""

    method: str
    u_max: int
    pmf_file: str | None = None
    p: float | None = None
    weights: tuple[float, ...] | None = None
    mix: str | None = None
    n: int = MpApproxConfig.n
    m: int = MpApproxConfig.m
    seed: int = MpApproxConfig.seed
    floor: float = MpApproxConfig.pmf_floor
    reps: int = 100_000

    def __post_init__(self):
        self.u_max = _whole_number(self.u_max, "--u-max")
        if not math.isfinite(self.floor) or self.floor <= 0:
            raise ValueError("--floor must be positive")

    def approx_config(self) -> MpApproxConfig:
        return MpApproxConfig(n=self.n, m=self.m, pmf_floor=self.floor, seed=self.seed)


# Values for unset flags: JobSpec's own defaults, plus two only the CLI has.
_DEFAULTS = {
    **{f.name: f.default for f in fields(JobSpec) if f.default is not MISSING},
    "u_max": 10,
    "format": "csv",
}


# -- model construction --------------------------------------------------------


def _parse_mix(text: str) -> MixingDistribution:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind in ("exp", "exponential"):
            return MixingDistribution.exponential(float(rest))
        if kind == "erlang":
            shape, beta = rest.split(",")
            return MixingDistribution.erlang(int(shape), float(beta))
        if kind == "erlang_mixture":
            weights, beta = rest.split(";")
            w = [float(v) for v in weights.split(",")]
            return MixingDistribution.erlang_mixture(w, float(beta))
        if kind == "pareto":
            alpha, theta = rest.split(",")
            return MixingDistribution.pareto(float(alpha), float(theta))
        if kind == "lognormal":
            m, s = rest.split(",")
            return MixingDistribution.lognormal(float(m), float(s))
        if kind == "degenerate":
            return MixingDistribution.degenerate(float(rest))
        if kind == "cdf_file":
            return MixingDistribution.load_cdf_table(rest)
    except ValueError as exc:
        raise ValueError(f"cannot parse mixing spec {text!r}: {exc}") from None
    raise ValueError(
        f"unknown mixing kind {kind!r}; expected exp, erlang, erlang_mixture, "
        "pareto, lognormal, degenerate, or cdf_file"
    )


class _Model:
    """Resolved model: lazily materialized claims plus optional structure."""

    def __init__(self, job: JobSpec):
        self.job = job
        self.mixing: MixingDistribution | None = None
        self.nbm_spec: NbmSpec | None = None
        self._claims: DiscretePmf | None = None

        if job.mix is not None:
            self.kind = "mp"
            self.mixing = _parse_mix(job.mix)
            self.nbm_spec = self.mixing.as_nbm()
            self._mean = self.mixing.mean
            self._build = partial(mp_claims_pmf, self.mixing)
        elif job.weights is not None:
            if job.p is None:
                raise ValueError("model nbm needs --weights and --p")
            self.kind = "nbm"
            self.nbm_spec = NbmSpec(job.weights, job.p)
            self._mean = self.nbm_spec.claim_mean
            self._build = partial(nbm_claims_pmf, self.nbm_spec)
        elif job.pmf_file is not None:
            claims = DiscretePmf.load_csv(job.pmf_file)
            if job.p is None:
                self.kind = "gd"
                self._claims = claims
            else:
                self.kind = "cb"
                self._claims = convert_cb_to_gd(job.p, claims)
        else:
            raise ValueError(
                "no claim model given; pass --mix, --weights with --p, or --pmf-file"
            )

    def describe(self) -> str:
        if self.kind == "mp":
            return f"mp({self.job.mix})"
        if self.kind == "nbm":
            return f"nbm(weights={self.job.weights}, p={self.job.p})"
        if self.kind == "cb":
            return f"cb(p={self.job.p}, pmf={self.job.pmf_file})"
        return f"gd(pmf={self.job.pmf_file})"

    def claims(self, x_max: int | None = None) -> DiscretePmf:
        """Claim pmf on 0..``x_max`` (the E and PK window), or without ``x_max``
        to the builder's tail tolerance (the simulator's), for a mean below 1
        only: on a heavy tail the search would otherwise run to the support cap."""
        if self._claims is not None:
            return self._claims
        if x_max is None and not self._mean < 1.0:
            raise ValueError(f"net profit condition requires mean < 1, got {self._mean}")
        return self._build(x_max=x_max)


# -- job execution ---------------------------------------------------------------


def _methods_for(job: JobSpec, model: _Model) -> list[str]:
    if job.method != "all":
        methods = [job.method]
    else:
        methods = list(_ALL_METHODS[model.kind])
    for m in methods:
        if m in ("mp1", "mp2") and model.kind != "mp":
            raise ValueError(f"method {m} needs a mixed Poisson model (--mix)")
        if m == "nbm" and model.nbm_spec is None:
            raise ValueError(
                "method nbm needs an nbm model or Erlang-family mixing; "
                f"got {model.describe()}"
            )
    return methods


def run(job: JobSpec) -> ResultTable:
    """Execute one job and return its table; runtimes land on stderr."""
    model = _Model(job)
    methods = _methods_for(job, model)
    us = list(range(job.u_max + 1))
    values: dict[str, list[float]] = {}
    extra_se: list[float] | None = None
    window: DiscretePmf | None = None  # the claims through u_max, built once for E and PK

    for method in methods:
        t0 = time.perf_counter()
        col = _METHOD_COLUMN[method]
        note = ""
        if method in ("exact", "pk") and window is None:
            window = model.claims(max(job.u_max, 1))
        if method == "exact":
            values[col] = [float(v) for v in psi_recursion(window, job.u_max)]
        elif method == "pk":
            values[col] = [psi_pk(window, u, tail_tol=1e-12) for u in us]
        elif method == "nbm":
            values[col] = [psi_nbm(model.nbm_spec, u) for u in us]
        elif method == "mp1":
            cfg = job.approx_config()
            values[col] = [psi_mp_method1(model.mixing, u, cfg) for u in us]
        elif method == "mp2":
            cfg = job.approx_config()
            pairs = [psi_mp_method2(model.mixing, u, cfg) for u in us]
            values[col] = [p[0] for p in pairs]
            extra_se = [p[1] for p in pairs]
        elif method == "simulate":
            # one pass serves every u, on the claims built to their tail tolerance;
            # the stop rule is certified on the law the walk draws from them
            res = simulate_paths(SimConfig(model.claims(), job.reps, job.seed))
            if res.censored == res.config.replications:
                raise RuntimeError(
                    f"all {res.censored} paths censored at {SimConfig.horizon} steps "
                    f"(stop bound {res.config.stop_bound}); no SIM estimate"
                )
            values[col] = [res.psi_at(u)[0] for u in us]
            if res.censored:
                note = f" ({res.censored} paths censored at {SimConfig.horizon} steps)"
        print(f"{col}: {time.perf_counter() - t0:.2f}s{note}", file=sys.stderr)

    reference = "E" if "E" in values else ("PK" if "PK" in values else None)
    columns = ["u"]
    for col in _COLUMN_ORDER[1:]:
        if col in values:
            columns.append(col)
            err = _ERR_COLUMN.get(col)
            if err and reference is not None and col != reference:
                columns.append(err)

    rows = []
    for i, u in enumerate(us):
        row: dict = {"u": u}
        for col, vals in values.items():
            row[col] = vals[i]
            err = _ERR_COLUMN.get(col)
            if err in columns:
                ref = values[reference][i]
                row[err] = (vals[i] - ref) / ref if ref > 0 else None
        if extra_se is not None:
            row["N2_se"] = extra_se[i]
        rows.append(row)

    meta = {
        "version": __version__,
        "model": model.describe(),
        "methods": methods,
        "u_max": job.u_max,
        "reference": reference,
    }
    if any(m in ("mp1", "mp2") for m in methods):
        meta.update(n=job.n, m=job.m, pmf_floor=job.floor, seed=job.seed)
        seq = mp_coefficients(model.mixing, job.approx_config(), 0)
        meta["grid_points"] = seq.grid_points
    if "simulate" in methods:
        meta.update(replications=job.reps, horizon=SimConfig.horizon, sim_seed=job.seed)
    return ResultTable(columns=columns, rows=rows, meta=meta)


# -- argument handling -----------------------------------------------------------


# argparse names a flag's type in its error message.
def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def csv_or_json(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"expected csv or json, got {text!r}")
    return text


# Every flag once: its name, which is also its config key and, but for format
# and out, its JobSpec field; the type that parses its value; its help.
_FLAGS = {
    "pmf_file": (str, "claim pmf CSV value,probability (model gd, or cb with --p)"),
    "p": (float, "NBM or compound binomial parameter"),
    "weights": (float_list, "NBM weights, a comma list, e.g. 0.5,0.5"),
    "mix": (str, "mixing law, e.g. erlang:2,3 or lognormal:-1,1 (model mp)"),
    "u_max": (int, "largest initial surplus"),
    "n": (int, "mixing grid refinement (methods 1 and 2)"),
    "m": (int, "Monte Carlo sample size of method 2"),
    "seed": (int, "random seed"),
    "floor": (float, "series truncation floor (methods 1 and 2)"),
    "reps": (int, "simulator replications"),
    "format": (csv_or_json, "csv or json"),
    "out": (str, "output file; for tables, output directory"),
}
_TABLES_FLAGS = ("n", "m", "seed", "floor", "out")


def _verb_flags(verb: str):
    return _TABLES_FLAGS if verb == "tables" else _FLAGS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdruin",
        description="Exact and approximate ruin probabilities for the "
        "discrete-time surplus process with unit premiums.",
    )
    parser.add_argument("--version", action="version", version=f"gdruin {__version__}")
    sub = parser.add_subparsers(dest="method", required=True, metavar="VERB")

    verbs = {
        "exact": "forward recursion (column E)",
        "pk": "ladder-height series evaluation (column PK)",
        "nbm": "coefficient series for mixture claims (column NBM)",
        "mp1": "grid series approximation (column N1)",
        "mp2": "grid Monte Carlo approximation (column N2)",
        "simulate": "path simulation estimate (column SIM)",
        "all": "every method valid for the model, one combined table",
        "tables": "recompute the three bundled benchmark tables",
    }
    for verb, help_text in verbs.items():
        p = sub.add_parser(verb, help=help_text)
        for name in _verb_flags(verb):
            kind, flag_help = _FLAGS[name]
            p.add_argument("--" + name.replace("_", "-"), type=kind, help=flag_help)
        p.add_argument("--config", help="file of KEY = VALUE lines, keys the flag names")
    return parser


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config line without '=': {raw!r}")
        values[key.strip().lower().replace("-", "_")] = val.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the ``--config`` file, parsed by the flag's own
    type, and then from the defaults."""
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key not in _verb_flags(args.method):
                raise ValueError(f"unknown config key {key!r}")
            try:
                value = _FLAGS[key][0](raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get("GDRUIN_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _merge_config(args)
        if args.method == "tables":
            cfg = MpApproxConfig(
                n=args.n, m=args.m, pmf_floor=args.floor, seed=args.seed
            )
            out_dir = _resolve_out(args.out) or Path.cwd()
            out_dir.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            produced = reproduce_tables(out_dir, cfg)
            for name, table in produced.items():
                print(
                    f"{name}: wrote {out_dir / f'table_{name}.csv'} "
                    f"(max |E delta| {max_abs_delta(table, 'E'):.1e}, "
                    f"max |N1 delta| {max_abs_delta(table, 'N1'):.1e})",
                    file=sys.stderr,
                )
            print(f"tables: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
            return 0

        table = run(JobSpec(**{f.name: getattr(args, f.name) for f in fields(JobSpec)}))
        text = table.to_csv() if args.format == "csv" else table.to_json()
        out = _resolve_out(args.out)
        if out is None:
            sys.stdout.write(text)
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
            print(f"wrote {out}", file=sys.stderr)
        return 0
    except RuntimeError as exc:
        print(f"gdruin: numeric budget: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"gdruin: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
