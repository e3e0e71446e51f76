"""Command-line surface: table assembly, serialization, config, exit codes.

Everything runs in-process through main(argv) or run(JobSpec), with stdout
captured, so the assertions cover the exact bytes a shell user would see.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np
import pytest

import gdruin.cli
from gdruin import (
    MixingDistribution,
    NbmSpec,
    SimConfig,
    mp_claims_pmf,
    nbm_claims_pmf,
    psi_mp_exact_reference,
    psi_nbm,
    simulate_paths,
)
from gdruin.cli import JobSpec, _build_parser, main, run
from gdruin.tables import (
    REFERENCE_TABLES,
    ResultTable,
    max_abs_delta,
    reproduce_tables,
)

ERLANG_ARGS = ["--mix", "erlang:2,3", "--u-max", "4"]


# -- run(): table assembly ---------------------------------------------------------


def test_exact_job_matches_reference_vector():
    table = run(JobSpec(method="exact", mix="erlang:2,3", u_max=6))
    assert table.columns == ["u", "E"]
    assert table.meta["reference"] == "E"
    ref = psi_mp_exact_reference(MixingDistribution.erlang(2, 3.0), 6)
    got = [row["E"] for row in table.rows]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_nbm_job_reports_the_series_value():
    spec = NbmSpec((0.5, 0.5), 0.7)
    table = run(
        JobSpec(method="nbm", weights=(0.5, 0.5), p=0.7, u_max=5)
    )
    for row in table.rows:
        assert row["NBM"] == pytest.approx(psi_nbm(spec, row["u"]), rel=1e-12)


@pytest.mark.parametrize(
    "mix, spec",
    [
        ("exp:2.4", NbmSpec((1.0,), 2.4 / 3.4)),
        ("erlang:2,3", NbmSpec((0.0, 1.0), 0.75)),
        ("erlang_mixture:0.4,0.6;2.5", NbmSpec((0.4, 0.6), 2.5 / 3.5)),
    ],
    ids=["exp", "erlang", "erlang_mixture"],
)
def test_nbm_job_on_erlang_family_mixing(mix, spec):
    table = run(JobSpec(method="nbm", mix=mix, u_max=5))
    assert [row["NBM"] for row in table.rows] == [psi_nbm(spec, u) for u in range(6)]


def test_all_methods_header_for_mixed_poisson():
    table = run(
        JobSpec(
            method="all", mix="erlang:2,3",
            u_max=3, m=200, reps=1000, seed=4,
        )
    )
    assert table.columns == ["u", "E", "N1", "err1", "N2", "err2", "SIM", "err_sim"]
    assert table.meta["methods"] == ["exact", "mp1", "mp2", "simulate"]
    assert table.meta["grid_points"] > 0
    for row in table.rows:
        assert row["N2_se"] >= 0.0
        if row["u"] == 0:
            assert abs(row["err1"]) < 1e-12  # both methods pin psi(0) to E(Lambda)
        assert abs(row["err1"]) < 0.01


@pytest.mark.parametrize(
    "job",
    [
        dict(method="nbm", weights=(0.5, 0.5), p=0.7, u_max=-1),
        dict(method="exact", mix="erlang:2,3", u_max=2, floor=-1.0),
        dict(method="exact", mix="erlang:2,3", u_max=2, floor=math.nan),
        dict(method="exact", mix="erlang:2,3", u_max=2.5),
    ],
    ids=["u_max", "floor", "nan_floor", "fractional_u_max"],
)
def test_run_rejects_what_main_rejects(job):
    with pytest.raises(ValueError, match="--u-max|--floor"):
        run(JobSpec(**job))


def test_relative_error_columns_use_the_reference():
    table = run(
        JobSpec(method="mp1", mix="erlang:2,3", u_max=4)
    )
    # mp1 alone has no exact column, so no reference and no error column
    assert table.columns == ["u", "N1"]
    assert table.meta["reference"] is None


# -- serialization -----------------------------------------------------------------


def test_csv_round_trip_is_byte_stable():
    table = run(JobSpec(method="exact", mix="erlang:2,3", u_max=8))
    text = table.to_csv()
    again = ResultTable.from_csv(text).to_csv()
    assert text == again


def test_json_round_trip_preserves_everything():
    table = run(JobSpec(method="exact", mix="erlang:2,3", u_max=4))
    obj = ResultTable.from_json(table.to_json())
    assert obj.columns == table.columns
    assert obj.meta == table.meta
    assert obj.rows == table.rows


def test_csv_cells_have_five_decimals():
    table = run(JobSpec(method="exact", mix="erlang:2,3", u_max=2))
    for line in table.to_csv().splitlines()[1:]:
        u, val = line.split(",")
        assert len(val.split(".")[1]) == 5
        assert not val.startswith("-0.00000")


# -- main(): happy paths -----------------------------------------------------------


def test_main_writes_csv_to_stdout(capsys):
    rc = main(["exact", *ERLANG_ARGS])
    assert rc == 0
    out = capsys.readouterr().out
    parsed = ResultTable.from_csv(out)
    assert parsed.columns == ["u", "E"]
    assert len(parsed.rows) == 5
    assert parsed.rows[0]["E"] == pytest.approx(2 / 3, abs=5e-6)


def test_main_json_format(capsys):
    rc = main(["exact", *ERLANG_ARGS, "--format", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["meta"]["model"].startswith("mp")
    assert obj["columns"] == ["u", "E"]


def test_main_writes_file_and_env_redirect(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GDRUIN_OUT_DIR", str(tmp_path))
    rc = main(["exact", *ERLANG_ARGS, "--out", "sub/result.csv"])
    assert rc == 0
    target = tmp_path / "sub" / "result.csv"
    assert target.exists()
    parsed = ResultTable.from_csv(target.read_text())
    assert len(parsed.rows) == 5
    capsys.readouterr()


def test_main_simulate_verb(capsys):
    rc = main(
        ["simulate", "--mix", "erlang:2,3", "--u-max", "2", "--reps", "2000", "--seed", "9"]
    )
    assert rc == 0
    parsed = ResultTable.from_csv(capsys.readouterr().out)
    assert parsed.columns == ["u", "SIM"]
    assert 0.0 <= parsed.rows[2]["SIM"] <= 1.0


@pytest.fixture
def simulator_passes(monkeypatch):
    """Configs of the simulator passes a job completes.

    A claim law whose support is too short for the stop rule is refused
    before any path is drawn, and the job doubles the support; such refused
    calls are not passes.
    """
    passes = []

    def counted(cfg):
        res = simulate_paths(cfg)
        passes.append(cfg)
        return res

    monkeypatch.setattr(gdruin.cli, "simulate_paths", counted)
    return passes


def _sim_readings(claims, u_max, reps, seed):
    res = simulate_paths(SimConfig(claims=claims, replications=reps, seed=seed))
    return [res.psi_at(u)[0] for u in range(u_max + 1)]


def test_all_job_simulates_once_for_every_u(simulator_passes):
    table = run(
        JobSpec(method="all", mix="erlang:2,3", u_max=10, reps=2000)
    )
    assert len(simulator_passes) == 1
    # the default tail 1e-12 leaves 65 support points, enough to certify the stop rule
    claims = mp_claims_pmf(MixingDistribution.erlang(2, 3.0), tail_tol=1e-12)
    assert [row["SIM"] for row in table.rows] == _sim_readings(claims, 10, 2000, 0)


def test_all_job_doubles_the_claim_support_until_the_stop_rule_certifies(simulator_passes):
    # the stop bound is 118 here, past the 65 points of the default tail 1e-12
    table = run(JobSpec(
        method="all", mix="erlang_mixture:0.6,0.1,0.3;2", u_max=10, reps=2000,
    ))
    assert len(simulator_passes) == 1
    mix = MixingDistribution.erlang_mixture((0.6, 0.1, 0.3), 2.0)
    with pytest.raises(ValueError, match="smaller tail tolerance"):
        _sim_readings(mp_claims_pmf(mix, tail_tol=1e-12), 0, 10, 0)
    claims = mp_claims_pmf(mix, x_max=129)  # twice the 65 points, less one
    assert [row["SIM"] for row in table.rows] == _sim_readings(claims, 10, 2000, 0)


def test_lognormal_all_job_runs_and_its_exact_column_falls(capsys):
    # the stop bound reads psi to u = 320, where the forward loop went negative
    assert main(["all", "--mix", "lognormal:-1,1", "--reps", "2000", "--format", "json"]) == 0
    e = [row["E"] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert all(b <= a for a, b in zip(e, e[1:]))


def test_simulate_verb_simulates_once_for_every_u(simulator_passes, capsys):
    rc = main([
        "simulate", "--weights", "0.5,0.5", "--p", "0.7",
        "--u-max", "10", "--reps", "2000", "--seed", "9", "--format", "json",
    ])
    assert rc == 0
    assert len(simulator_passes) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    claims = nbm_claims_pmf(NbmSpec((0.5, 0.5), 0.7), tail_tol=1e-12)
    assert [row["SIM"] for row in rows] == _sim_readings(claims, 10, 2000, 9)


@pytest.mark.parametrize("mix", ["erlang:2,3", "lognormal:-1,1"])
def test_pk_on_mixed_poisson_matches_exact(mix, capsys):
    # the claims stop at u_max, so the ladder law has a large tail past them
    columns = {}
    for verb in ("pk", "exact"):
        assert main([verb, "--mix", mix, "--u-max", "5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        columns.update({col: [row[col] for row in rows] for col in ("PK", "E") if col in rows[0]})
    np.testing.assert_allclose(columns["PK"], columns["E"], rtol=1e-10, atol=0.0)


def test_nbm_model_builds_its_claims_through_u_max(capsys):
    # the default tail tolerance gives 65 claim points, short of u_max = 100
    spec = NbmSpec((0.5, 0.5), 0.7)
    nbm = [psi_nbm(spec, u) for u in range(101)]
    for verb in ("exact", "pk", "all"):
        argv = [verb, "--weights", "0.5,0.5", "--p", "0.7", "--u-max", "100", "--format", "json"]
        assert main(argv + ["--reps", "2000"]) == 0, verb
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 101
        if "E" in rows[0]:
            e = [row["E"] for row in rows]
            np.testing.assert_allclose(e, nbm, rtol=1e-10, atol=0.0)


def test_main_pmf_file_model(tmp_path, capsys):
    f = tmp_path / "claims.csv"
    f.write_text("value,probability\n# claims\n0,0.5\n\n1,0.2\n2,0.2\n2,0.1\n")
    rc = main(["exact", "--pmf-file", str(f), "--u-max", "3"])
    assert rc == 0
    parsed = ResultTable.from_csv(capsys.readouterr().out)
    assert parsed.rows[0]["E"] == pytest.approx(0.8, abs=1e-9)  # mean of the pmf


def test_cdf_file_mixing_skips_header_comment_and_blank_rows(tmp_path, capsys):
    f = tmp_path / "mix.csv"
    f.write_text("lambda,cdf\n# two atoms\n0.2,0.4\n\n0.9,1.0\n")
    assert main(["exact", "--mix", f"cdf_file:{f}", "--u-max", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    ref = psi_mp_exact_reference(MixingDistribution.from_cdf_table([0.2, 0.9], [0.4, 1.0]), 3)
    assert [row["E"] for row in rows] == [float(v) for v in ref]


def test_config_file_fills_unset_arguments(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# comment\nmix = erlang:2,3\nu-max = 2\n")
    rc = main(["exact", "--config", str(cfg)])
    assert rc == 0
    assert len(ResultTable.from_csv(capsys.readouterr().out).rows) == 3


def test_cli_flag_beats_config_value(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("mix = erlang:2,3\nu_max = 9\n")
    rc = main(["exact", "--config", str(cfg), "--u-max", "1"])
    assert rc == 0
    assert len(ResultTable.from_csv(capsys.readouterr().out).rows) == 2


# -- main(): failures --------------------------------------------------------------


def test_every_mixing_spec_parses_to_one_of_four_families(tmp_path):
    table = tmp_path / "mix.csv"
    table.write_text("lambda,cdf\n0.1,0.2\n0.3,0.5\n0.77,1\n")
    specs = {
        "exp:1.5": MixingDistribution.exponential(1.5),
        "exponential:1.5": MixingDistribution.exponential(1.5),
        "erlang:2,3": MixingDistribution.erlang(2, 3.0),
        "erlang_mixture:0.4,0.6;2.5": MixingDistribution.erlang_mixture((0.4, 0.6), 2.5),
        "pareto:3,1": MixingDistribution.pareto(3.0, 1.0),
        "lognormal:-1,1": MixingDistribution.lognormal(-1.0, 1.0),
        "degenerate:0.8": MixingDistribution.degenerate(0.8),
        f"cdf_file:{table}": MixingDistribution.from_cdf_table((0.1, 0.3, 0.77), (0.2, 0.5, 1.0)),
    }
    for text, mix in specs.items():
        parsed = gdruin.cli._parse_mix(text)
        assert parsed == mix
        assert parsed.kind in ("erlang_mixture", "atoms", "pareto", "lognormal")


def test_unknown_mixing_kind_exits_2(capsys):
    assert main(["exact", "--mix", "weibull:1,2"]) == 2
    assert "unknown mixing kind" in capsys.readouterr().err


def test_missing_model_exits_2(capsys):
    assert main(["exact"]) == 2
    assert "no claim model" in capsys.readouterr().err


def test_negative_support_value_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("-1,0.5\n1,0.5\n")
    assert main(["exact", "--pmf-file", str(f)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text", ["0,1.5\n1,-0.5\n", "0,0.5\n1\n", "0,0.5\n1.5,0.5\n"],
    ids=["negative_mass", "one_cell_row", "fractional_value"],
)
def test_malformed_pmf_file_exits_2(text, tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    assert main(["exact", "--pmf-file", str(f)]) == 2
    assert capsys.readouterr().err.startswith("gdruin: ")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("mix = erlang:2,3\nbogus = 1\n")
    assert main(["exact", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["model", "horizon", "tail_tol"])
def test_removed_knobs_are_unknown_config_keys(key, tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"mix = erlang:2,3\n{key} = 1\n")
    assert main(["exact", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_value_gets_its_flags_check(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("mix = erlang:2,3\nformat = xml\n")
    assert main(["exact", "--config", str(cfg)]) == 2
    assert "expected csv or json" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--mix", "erlang:2,3", "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_nbm_on_non_erlang_mixing_exits_2(capsys):
    assert main(["nbm", "--mix", "pareto:3,1"]) == 2
    assert "method nbm needs" in capsys.readouterr().err


def test_heavy_tail_mixing_runs(capsys):
    # no mixing law is too heavy-tailed for the grid, however slowly it decays
    assert main(["mp1", "--mix", "pareto:2.1,1", "--u-max", "2"]) == 0
    table = ResultTable.from_csv(capsys.readouterr().out)
    assert [row["u"] for row in table.rows] == [0, 1, 2]
    assert table.rows[0]["N1"] == pytest.approx(1.0 / 1.1, abs=5e-6)
    assert table.rows[0]["N1"] > table.rows[1]["N1"] > table.rows[2]["N1"] > 0.0


def test_pareto_all_job_exits_3_at_the_support_cap(capsys):
    # P(X > x) < 1e-12 needs 517,948 points here; the search stops at 2^17
    t0 = time.perf_counter()
    assert main(["all", "--mix", "pareto:2.1,1", "--u-max", "2", "--reps", "2000"]) == 3
    assert time.perf_counter() - t0 < 10.0
    assert "claim support exceeds" in capsys.readouterr().err


def test_infinite_mean_mixing_exits_2(capsys):
    assert main(["mp1", "--mix", "pareto:1,1", "--u-max", "2"]) == 2
    assert "E(Lambda) < 1" in capsys.readouterr().err


# -- the flag table ----------------------------------------------------------------

JOB_FLAGS = {
    "--pmf-file", "--p", "--weights", "--mix", "--u-max", "--n", "--m", "--seed",
    "--floor", "--reps", "--format", "--out", "--config",
}
TABLES_FLAGS = {"--n", "--m", "--seed", "--floor", "--out", "--config"}


@pytest.mark.parametrize(
    "verb", ["exact", "pk", "nbm", "mp1", "mp2", "simulate", "all", "tables"]
)
def test_every_verb_offers_its_table_flags(verb):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {s for a in sub.choices[verb]._actions for s in a.option_strings}
    assert offered - {"-h", "--help"} == (TABLES_FLAGS if verb == "tables" else JOB_FLAGS)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--pmf-file", "claims.csv"), ("--p", "0.7"), ("--weights", "0.5,0.5"),
        ("--mix", "erlang:2,3"), ("--u-max", "3"), ("--n", "250"), ("--m", "300"),
        ("--seed", "7"), ("--floor", "1e-6"), ("--reps", "500"), ("--format", "json"),
        ("--out", "result.csv"),
    ],
)
def test_config_line_equals_its_flag(flag, value, tmp_path, monkeypatch, capsys):
    """The job, stdout and output file a config line gives are the flag's."""
    monkeypatch.setenv("GDRUIN_OUT_DIR", str(tmp_path))
    jobs = []

    def recorded(job):
        jobs.append(job)
        return ResultTable(columns=["u"], rows=[{"u": 0}])

    monkeypatch.setattr(gdruin.cli, "run", recorded)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    seen = []
    for argv in (["all"], ["all", flag, value], ["all", "--config", str(cfg)]):
        assert main(argv) == 0
        written = tmp_path / "result.csv"
        seen.append((capsys.readouterr().out, written.exists() and written.read_text()))
        written.unlink(missing_ok=True)
    none, by_flag, by_config = zip(jobs, seen)
    assert by_config == by_flag != none


# -- benchmark tables --------------------------------------------------------------


@pytest.fixture(scope="module")
def produced_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    return out, reproduce_tables(out)


def test_reproduce_tables_writes_three_files(produced_tables):
    out, tables = produced_tables
    assert sorted(tables) == ["erlang", "lognormal", "pareto"]
    for name in tables:
        assert (out / f"table_{name}.csv").exists()


@pytest.mark.parametrize("name", ["erlang", "pareto", "lognormal"])
def test_reproduced_columns_hit_published_digits(produced_tables, name):
    out, tables = produced_tables
    assert max_abs_delta(tables[name], "E") < 5e-5
    assert max_abs_delta(tables[name], "N1") < 5e-4
    # the file on disk carries the same reference digits we validated against
    written = ResultTable.from_csv((out / f"table_{name}.csv").read_text())
    refs = REFERENCE_TABLES[name]
    for row in written.rows:
        u = int(row["u"])
        assert row["E_ref"] == pytest.approx(refs["E"][u], abs=1e-9)
        assert row["N1_ref"] == pytest.approx(refs["N1"][u], abs=1e-9)
        assert abs(row["E"] - refs["E"][u]) < 5e-5 + 5e-6  # 5-decimal cells


def test_tables_verb_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GDRUIN_OUT_DIR", str(tmp_path))
    rc = main(["tables", "--out", "bench"])
    assert rc == 0
    err = capsys.readouterr().err
    for name in ("erlang", "pareto", "lognormal"):
        path = tmp_path / "bench" / f"table_{name}.csv"
        assert path.exists()
        assert name in err
    header = (tmp_path / "bench" / "table_erlang.csv").read_text().splitlines()[0]
    assert header.split(",")[:4] == ["u", "E", "E_ref", "E_delta"]
