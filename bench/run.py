"""Benchmark runner: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload table_models --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is taken from ``src/``
next to this directory.  Workloads (see README.md beside this file):

``table_models``  ~48 seeded mixing laws, each a cold grid plus E, N1, N2 at u = 0..10
``deep_sweep``    Erlang(2,3) at u = 10..500 (N1, N2, NBM), then E to 1000 and PK
``cli_runs``      fresh ``gdruin`` processes: ``tables`` and ``all`` per model kind

A run repeats the workload's fixed op set in rounds, each in fresh
processes so caches start cold, until ``--seconds`` of measuring time have
passed.  Ops run one at a time from this one process, never more than one
child at once, with BLAS and OpenMP pools pinned to one thread.  Each op
checks its own output; a failed check or a refused op is a failed op and
counts as +inf latency in every percentile.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the traced
ones, with the traced-minus-untraced op time as ``trace.overhead_s``.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Before anything can load a BLAS: children inherit these too.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("table_models", "deep_sweep", "cli_runs")
# Set-up is sampled this many times before the rounds (plus once per round
# for the library workloads) and reported as the median.
SETUP_PROBES = 5
# Leave room under the 180 s a run may take.
RUN_DEADLINE_S = 160.0
CLI_REPS = 20_000
# The harness self-test (--smoke) runs every op at reduced size.
SMOKE_CLI_REPS = 500

# Error texts of known program defects, so a failure names its cause.
KNOWN_DEFECTS = {
    "recursion produced psi(": "deep-tail recursion defect: the exact recursion "
    "goes negative in the simulator's stop bound",
}

PER_LAYER = (
    # (metric, span name, statistic, unit)
    ("mixed_poisson.mp_coefficients.self_s", "mixed_poisson.mp_coefficients", "self_s", "s"),
    ("mixed_poisson.mp_coefficients.calls", "mixed_poisson.mp_coefficients", "calls", "count"),
    ("mixed_poisson.mp_coefficients.builds", "mixed_poisson.mp_coefficients", "builds", "count"),
    ("mixed_poisson.mp_coefficients.max_k", "mixed_poisson.mp_coefficients", "max_k", "count"),
    ("mixed_poisson.mp_coefficients.hit_ratio", "mixed_poisson.mp_coefficients", "hit_ratio", "ratio"),
    ("mixed_poisson.grid.self_s", tracing.GRID_SPAN, "self_s", "s"),
    ("mixed_poisson.grid.points", tracing.GRID_SPAN, "points", "count"),
    ("mixed_poisson.psi_mp_method1.self_s", "mixed_poisson.psi_mp_method1", "self_s", "s"),
    ("mixed_poisson.psi_mp_method2.self_s", "mixed_poisson.psi_mp_method2", "self_s", "s"),
    ("distributions.mp_claims_pmf.self_s", "distributions.mp_claims_pmf", "self_s", "s"),
    ("distributions.mp_claims_pmf.calls", "distributions.mp_claims_pmf", "calls", "count"),
    ("recursion.psi_recursion.self_s", "recursion.psi_recursion", "self_s", "s"),
    ("recursion.psi_recursion.calls", "recursion.psi_recursion", "calls", "count"),
    ("recursion.psi_recursion.values", "recursion.psi_recursion", "values", "count"),
    ("nbm.psi_nbm.self_s", "nbm.psi_nbm", "self_s", "s"),
    ("nbm.psi_nbm.calls", "nbm.psi_nbm", "calls", "count"),
    ("nbm.cbar_sequence.self_s", "nbm.cbar_sequence", "self_s", "s"),
    ("nbm.cbar_sequence.calls", "nbm.cbar_sequence", "calls", "count"),
    ("pollaczek.psi_pk.self_s", "pollaczek.psi_pk", "self_s", "s"),
    ("pollaczek.psi_pk.calls", "pollaczek.psi_pk", "calls", "count"),
    ("distributions.equilibrium.self_s", "distributions.equilibrium", "self_s", "s"),
    ("simulate.simulate_paths.self_s", "simulate.simulate_paths", "self_s", "s"),
    ("simulate.simulate_paths.calls", "simulate.simulate_paths", "calls", "count"),
    ("simulate.simulate_paths.paths", "simulate.simulate_paths", "paths", "count"),
    ("simulate.simulate_paths.censored", "simulate.simulate_paths", "censored", "count"),
    ("simulate.simulate_paths.retries", "simulate.simulate_paths", "raised", "count"),
    ("tables.reproduce_tables.self_s", "tables.reproduce_tables", "self_s", "s"),
    ("cli.run.self_s", "cli.run", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)


class HarnessError(Exception):
    """The benchmark itself could not run (not a failure of an op)."""


class Run:
    """State of one benchmark run: work directory, clock and child budget."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.smoke = smoke
        self.probes = 1 if smoke else SETUP_PROBES
        self.start = time.monotonic()
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.setup_samples: list[float] = []
        # {"ops": [...], "traced": bool, "dumps": [span dumps], "zero_clipped": int}
        self.rounds: list[dict] = []
        self.hashes: dict[str, str] = {}

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, argv: list[str], cwd: Path | None = None) -> tuple[int, str, float]:
        """Run one child to completion; returns (exit code, stderr, wall seconds)."""
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise HarnessError(f"{argv[1:3]} did not finish within the run deadline") from None
            raise
        return proc.returncode, err, time.monotonic() - t0


# -- library workloads ---------------------------------------------------------


def _worker(run: Run, out: Path, extra: list[str]) -> dict:
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", run.workload,
        "--seed", str(run.seed), "--out", str(out), *extra, *(["--smoke"] if run.smoke else []),
    ]
    spawned = time.monotonic()
    code, err, _ = run.spawn(argv)
    if code != 0 or not out.exists():
        raise HarnessError(f"worker exited {code}: {err.strip()[-2000:]}")
    record = json.loads(out.read_text())
    run.setup_samples.append(record["ready"] - spawned)
    return record


def library_setup(run: Run) -> None:
    for i in range(run.probes):
        _worker(run, run.work / f"setup{i}.json", ["--setup-only"])


def library_round(run: Run, index: int, traced: bool) -> dict:
    record = _worker(run, run.work / f"round{index}.json", ["--trace", "1" if traced else "0"])
    ops = [dict(o, wall=True) for o in record["ops"]]
    dumps = [record["trace"]] if traced else []
    return {"ops": ops, "dumps": dumps, "zero_clipped": record["zero_clipped"]}


# -- CLI workload -------------------------------------------------------------------


@dataclass
class CliOp:
    """One ``gdruin`` invocation, the data files it writes and their check.

    ``check(paths)`` raises :class:`checks.CheckFailed` on a wrong output and
    returns the number of zero-clipped exact values it saw.  ``wall`` says
    whether the op's time counts in ``wall_s``.
    """

    name: str
    args: list[str]
    outputs: list[str]
    check: Callable[[list[Path]], int]
    wall: bool = True


def _json_rows(path: Path) -> dict[str, list]:
    rows = json.loads(path.read_text())["rows"]
    cols: dict[str, list] = {}
    for row in rows:
        for key, value in row.items():
            cols.setdefault(key, []).append(value)
    return cols


def _check_all(mean: float):
    def check(paths: list[Path]) -> int:
        cols = _json_rows(paths[0])
        for label in ("E", "PK", "NBM", "N1"):
            if label in cols:
                checks.psi_vector(label, cols[label], mean)
        if "N2" in cols:
            checks.estimates("N2", list(zip(cols["N2"], cols["N2_se"])), mean)
        if "SIM" in cols:
            checks.in_unit("SIM", cols["SIM"])
        if "NBM" in cols:
            n = checks.NBM_E_MAX_U + 1
            checks.agree("NBM", cols["NBM"][:n], "E", cols["E"][:n], checks.NBM_E_TOL)
            return checks.zero_clipped(cols["E"], cols["NBM"])
        return 0

    return check


_TABLE_MEANS = {"erlang": 2.0 / 3.0, "pareto": 0.5, "lognormal": math.exp(-0.5)}


def _check_tables(paths: list[Path]) -> int:
    for path in paths:
        name = path.stem.removeprefix("table_")
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref = checks.REFERENCE_TABLES[name]
        e = [float(r["E"]) for r in rows]
        n1 = [float(r["N1"]) for r in rows]
        # CSV cells carry five decimals, so psi(0) matches the mean to 5e-6
        checks.psi_vector(f"{name} E", e, _TABLE_MEANS[name], mean_tol=5e-6)
        checks.psi_vector(f"{name} N1", n1, _TABLE_MEANS[name], mean_tol=5e-6)
        checks.agree(f"{name} E", e, "reference", ref["E"], checks.TABLE_E_TOL)
        checks.agree(f"{name} N1", n1, "reference", ref["N1"], checks.TABLE_N1_TOL)
    return 0


def _write_pmf(path: Path, pmf: list[float]) -> None:
    path.write_text("".join(f"{x},{f!r}\n" for x, f in enumerate(pmf)))


def cli_ops(run: Run) -> list[CliOp]:
    """Write the seeded model files and list the ops of one round."""
    models = inputs.cli_models(run.seed)
    _write_pmf(run.work / "gd.csv", models["gd"]["pmf"])
    _write_pmf(run.work / "cb.csv", models["cb"]["pmf"])
    seed = ["--seed", str(run.seed)]
    reps = SMOKE_CLI_REPS if run.smoke else CLI_REPS
    common = ["--reps", str(reps), *seed, "--format", "json"]
    nbm = models["nbm"]
    kinds = {
        "gd": ["--pmf-file", "gd.csv"],
        "cb": ["--pmf-file", "cb.csv", "--p", repr(models["cb"]["p"])],
        "nbm": ["--weights", ",".join(repr(w) for w in nbm["weights"]), "--p", repr(nbm["p"])],
    }
    ops = [CliOp(
        "tables", ["tables", "--out", "{out}", *seed],
        [f"table_{n}.csv" for n in checks.REFERENCE_TABLES], _check_tables,
    )]
    for kind, args in kinds.items():
        ops.append(CliOp(
            f"all_{kind}", ["all", *args, *common, "--out", "{out}/data.json"],
            ["data.json"], _check_all(models[kind]["mean"]),
        ))
    # Mixed Poisson ops use the paper's fixed laws.  A seeded Erlang mixture
    # fails on about half of all seeds (stop-bound certification defect, see
    # README.md), which would make the failure count depend on the seed.
    ops.append(CliOp(
        "all_mp", ["all", "--mix", "erlang:2,3", *common, "--out", "{out}/data.json"],
        ["data.json"], _check_all(2.0 / 3.0),
    ))
    # Lognormal(-1, 1) fails at the seed commit (deep-tail recursion defect)
    # and stays in the workload so the defect shows.  Its time is kept out of
    # wall_s: a fix adds simulation time there, which must not read as a
    # regression.  It still counts in every percentile.
    ops.append(CliOp(
        "all_mp_lognormal", ["all", "--mix", "lognormal:-1,1", *common, "--out", "{out}/data.json"],
        ["data.json"], _check_all(math.exp(-0.5)), wall=False,
    ))
    return ops


def _launch_argv(args: list[str], trace_out: Path | None) -> list[str]:
    argv = [sys.executable, str(BENCH / "launch.py")]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    return argv + ["--", *args]


def cli_setup(run: Run) -> list[CliOp]:
    t0 = time.monotonic()
    ops = cli_ops(run)
    generate = time.monotonic() - t0
    for _ in range(run.probes):
        code, err, wall = run.spawn(_launch_argv(["--version"], None), cwd=run.work)
        if code != 0:
            raise HarnessError(f"gdruin --version exited {code}: {err.strip()[-2000:]}")
        run.setup_samples.append(wall + generate)
    return ops


def cli_round(run: Run, ops: list[CliOp], index: int, traced: bool) -> dict:
    results, dumps, clipped = [], [], 0
    for op in ops:
        out_dir = f"round{index}/{op.name}"
        (run.work / out_dir).mkdir(parents=True)
        trace_out = run.work / out_dir / "spans.json" if traced else None
        args = [a.replace("{out}", out_dir) for a in op.args]
        code, err, wall = run.spawn(_launch_argv(args, trace_out), cwd=run.work)
        error, wrong = None, False
        paths = [run.work / out_dir / name for name in op.outputs]
        if code != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            error = f"exit {code}: {last}"
        else:
            try:
                clipped += op.check(paths)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                error, wrong = f"check: {exc}", True
        if code == 0 and index == 0:
            for path in paths:
                if path.exists():
                    run.hashes[f"{op.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        if trace_out is not None and trace_out.exists():
            dumps.append(json.loads(trace_out.read_text()))
        results.append({"name": op.name, "ms": wall * 1e3, "error": error, "wrong": wrong, "wall": op.wall})
    return {"ops": results, "dumps": dumps, "zero_clipped": clipped}


# -- metrics ----------------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def round_ms(rnd: dict, wall_only: bool) -> float:
    return math.fsum(o["ms"] for o in rnd["ops"] if o["wall"] or not wall_only)


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    ops = [o for r in run.rounds for o in r["ops"]]
    lat = [math.inf if o["error"] else o["ms"] for o in ops]
    p50, beyond50 = nearest_rank(lat, 0.50)
    p75, beyond75 = nearest_rank(lat, 0.75)
    failed = sum(1 for o in ops if o["error"])
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(round_ms(r, True) for r in run.rounds) / 1e3, "s",
                   f"median of {len(run.rounds)} rounds of {len(run.rounds[0]['ops'])} ops"),
        "setup_s": (statistics.median(run.setup_samples), "s",
                    f"median of {len(run.setup_samples)} set-ups"),
        "peak_rss_mb": (rss, "MB", "max over child processes"),
        "op_p50_ms": (p50, "ms", f"{len(ops)} ops, {beyond50} beyond"),
        "op_p75_ms": (p75, "ms", f"{len(ops)} ops, {beyond75} beyond"),
    }
    lines = [f"{k:<12} {v:>14.6f} {u:<3} ({note})" for k, (v, u, note) in metrics.items()]
    lines.append(f"{'fail_frac':<12} {failed / len(ops):>14.6f}     ({failed} of {len(ops)} ops)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    traced = [r for r in run.rounds if r["traced"]]
    plain = [r for r in run.rounds if not r["traced"]]
    layers, absent = tracing.summarize([d for r in traced for d in r["dumps"]])
    out: dict = {}
    for metric, span, stat, unit in PER_LAYER:
        label = span if span != tracing.GRID_SPAN else "mixed_poisson.mp_coefficients"
        if label in absent:
            continue
        row = layers.get(span, {})
        if stat == "hit_ratio":
            calls = row.get("calls", 0)
            value = 1.0 - row.get("builds", 0) / calls if calls else 0.0
        else:
            value = row.get(stat, 0) / len(traced)
        out[metric] = {"value": value, "unit": unit}
    clipped = statistics.mean(r["zero_clipped"] for r in traced)
    out["recursion.zero_clipped"] = {"value": clipped, "unit": "count"}
    overhead = (statistics.median(round_ms(r, False) for r in traced)
                - statistics.median(round_ms(r, False) for r in plain)) / 1e3
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines = [f"{k:<44} {v['value']:>16.6f} {v['unit']}" for k, v in out.items()]
    lines += [f"absent (not in the package): {name}" for name in sorted(absent)]
    lines.append(f"per-layer values are per traced round ({len(traced)} traced, {len(plain)} untraced)")
    return out, lines


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    pinned = " ".join(f"{k}={v}" for k, v in PINNED_THREADS.items())
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas_name} {pinned}")


# -- main ---------------------------------------------------------------------------


def measure(run: Run) -> None:
    if run.workload == "cli_runs":
        ops = cli_setup(run)
        do_round = lambda i, traced: cli_round(run, ops, i, traced)  # noqa: E731
    else:
        library_setup(run)
        do_round = lambda i, traced: library_round(run, i, traced)  # noqa: E731

    t0 = time.monotonic()
    need = 2 if run.trace else 1
    last = 0.0
    while len(run.rounds) < need or time.monotonic() - t0 < run.seconds:
        if len(run.rounds) >= need and run.remaining() < 1.5 * last:
            break
        index = len(run.rounds)
        traced = run.trace and index % 2 == 1
        r0 = time.monotonic()
        rnd = do_round(index, traced)
        last = time.monotonic() - r0
        rnd["traced"] = traced
        run.rounds.append(rnd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gdruin benchmark runner")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gdruin" / "__init__.py").is_file():
        print(f"bench: no program sources at {ROOT / 'src' / 'gdruin'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    try:
        measure(run)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = [o for r in run.rounds for o in r["ops"]]
    failed = [o for o in ops if o["error"]]
    print(f"workload {run.workload} seed {run.seed}: {len(run.rounds)} rounds, "
          f"{len(ops)} ops, {len(failed)} failed")
    print("round op time s: " + " ".join(f"{round_ms(r, False) / 1e3:.3f}" for r in run.rounds))
    print("set-up s: " + " ".join(f"{t:.3f}" for t in run.setup_samples))
    print("env: " + environment())
    metrics, lines = per_layer(run) if run.trace else end_to_end(run)
    print("\n".join(lines))
    for name, digest in sorted(run.hashes.items()):
        print(f"sha256 {name} {digest}")
    for op in failed:
        defect = next((d for k, d in KNOWN_DEFECTS.items() if k in op["error"]), None)
        print(f"failed {op['name']}: {op['error']}" + (f" [{defect}]" if defect else ""))
    print(json.dumps({
        "correct": not any(o["wrong"] for o in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
