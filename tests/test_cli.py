"""Command-line surface: method grammar, exit codes, pipeline reproducibility."""

import csv
import json
import shutil
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import steincv.cf as cf_mod
from conftest import MALFORMED_NPY, rewrite_as_csv_archive
from steincv.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    parse_method,
    parse_methods,
)
from steincv.errors import InvalidInput
from steincv.evidence import VANILLA, CfMethod, CrossvalMethod, expectation_with_provenance
from steincv.models import model_from_manifest
from steincv.polybasis import SubsetSpec
from steincv.smc import load_particle_system
from steincv.zvcv import ZvSpec


# --- method grammar -----------------------------------------------------------------


def test_parse_method_vanilla():
    assert parse_method("vanilla") == VANILLA
    assert parse_method("none") == VANILLA
    with pytest.raises(InvalidInput):
        parse_method("vanilla:loud")


def test_parse_method_zv():
    assert parse_method("zv") == ZvSpec(degree=2)
    spec = parse_method("zv:Q=3:lasso:lam=0.1:split")
    assert spec == ZvSpec(degree=3, penalty="lasso", lam=0.1, estimator="split")
    assert parse_method("zv:ridge").penalty == "ridge"
    assert parse_method("zv:lasso:relaxed").relaxed is True
    assert parse_method("zv:sub=1+3").subset == SubsetSpec((0, 2))
    for bad in ("zv:Q=x", "zv:sub=0", "zv:frobnicate", "zv:Q=0"):
        with pytest.raises(InvalidInput):
            parse_method(bad)


def test_parse_method_cf():
    assert parse_method("cf") == CfMethod()
    got = parse_method("cf:bw=2.5:lam=0.1:folds=3")
    assert got == CfMethod(bandwidth=2.5, lam_r=0.1, folds=3)
    poly = parse_method("cf:poly:Q=3:lam=0.5")
    assert poly == CfMethod(kind="polynomial", degree=3, lam_r=0.5)
    with pytest.raises(InvalidInput):
        parse_method("cf:shape=round")
    with pytest.raises(InvalidInput):
        parse_method("cf:bw=tiny")


def test_parse_method_crossval_and_unknown():
    assert parse_method("crossval") == CrossvalMethod()
    assert parse_method("crossval:maxQ=3") == CrossvalMethod(max_degree=3)
    with pytest.raises(InvalidInput):
        parse_method("crossval:minQ=2")
    with pytest.raises(InvalidInput):
        parse_method("magic")


def test_parse_methods_list():
    got = parse_methods("vanilla, zv:Q=1 ,cf")
    assert got == [VANILLA, ZvSpec(degree=1), CfMethod()]
    with pytest.raises(InvalidInput):
        parse_methods(" , ")


# --- pipeline fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    path = d / "model.json"
    path.write_text(json.dumps({
        "kind": "conjugate_gaussian",
        "prior_mean": [0.0], "prior_cov": [[1.0]], "obs_cov": [[1.0]],
        "data": [[1.1], [0.4], [0.9]],
    }))
    return path


def run_smc_cli(model_file, out, seed=5, replicates=2, jobs=1):
    return main([
        "smc", "--model", str(model_file), "--n", "64",
        "--rho", "0.7", "--hmin", "0.1", "--hmax", "2.0",
        "--max-repeats", "5", "--replicates", str(replicates),
        "--jobs", str(jobs), "--seed", str(seed), "--out", str(out),
    ])


@pytest.fixture(scope="module")
def pipeline(model_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    assert run_smc_cli(model_file, out / "run_a") == EXIT_OK
    return out


def archive_bytes(run_dir):
    """Deterministic payload files, skipping the timestamped sidecars."""
    out = {}
    for p in sorted(Path(run_dir).rglob("*")):
        if p.is_file() and p.name not in ("run.log", "timings.json"):
            out[str(p.relative_to(run_dir))] = p.read_bytes()
    return out


def test_smc_outputs_and_rerun_identical(model_file, pipeline):
    run_a = pipeline / "run_a"
    pilot = run_a / "pilot"
    manifest = json.loads((pilot / "manifest.json").read_text())
    n_temps = len(manifest["temperatures"])
    assert n_temps >= 3
    assert manifest["format"] == "npy"
    assert sorted(p.name for p in pilot.glob("t_*")) == [
        f"t_{i:03d}.npy" for i in range(n_temps)
    ]
    cfg = json.loads((run_a / "run_config.json").read_text())
    assert cfg["replicate_seeds"] == [6, 7]
    assert cfg["smc"]["n_particles"] == 64
    assert (run_a / "replicates" / "rep_001" / "manifest.json").exists()

    assert run_smc_cli(model_file, pipeline / "run_b") == EXIT_OK
    assert archive_bytes(pipeline / "run_b") == archive_bytes(run_a)


def test_parallel_replicates_match_sequential(model_file, pipeline):
    assert run_smc_cli(model_file, pipeline / "run_j", jobs=2) == EXIT_OK
    assert archive_bytes(pipeline / "run_j") == archive_bytes(pipeline / "run_a")


def test_sidecar_schema(pipeline):
    run_a = pipeline / "run_a"
    timings = json.loads((run_a / "timings.json").read_text())
    assert set(timings) == {"entries", "total_s"}
    assert timings["total_s"] == pytest.approx(sum(timings["entries"].values()))
    assert {"pilot", "replicate_000", "replicate_001"} <= set(timings["entries"])
    for line in (run_a / "run.log").read_text().splitlines():
        stamp = line.split(" ")[0]
        datetime.fromisoformat(stamp)          # raises if not a timestamp


def test_postprocess_estimates(pipeline):
    archive = pipeline / "run_a" / "pilot"
    out = pipeline / "pp"
    code = main([
        "postprocess", "--archive", str(archive),
        "--methods", "vanilla,zv:Q=2", "--integrands", "mean,square",
        "--seed", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads((out / "estimates.json").read_text())
    assert payload["temperature"] == 1.0
    rows = payload["results"]
    assert len(rows) == 2 * 2                     # 2 methods x (theta1, theta1^2)
    names = {(r["integrand"], r["method"]) for r in rows}
    assert names == {("theta1", "vanilla"), ("theta1^2", "vanilla"),
                     ("theta1", "zv:Q=2:ols"), ("theta1^2", "zv:Q=2:ols")}
    # conjugate posterior: mean (prec0*0 + 3*ybar)/(1+3) = 0.6 exactly at N->inf;
    # the ZV-2 estimate on 64 particles is already within a few hundredths
    zv_mean = next(r for r in rows if r["method"] == "zv:Q=2:ols"
                   and r["integrand"] == "theta1")
    assert zv_mean["estimate"] == pytest.approx(0.6, abs=0.05)

    again = pipeline / "pp_again"
    assert main([
        "postprocess", "--archive", str(archive),
        "--methods", "vanilla,zv:Q=2", "--integrands", "mean,square",
        "--seed", "1", "--out", str(again),
    ]) == EXIT_OK
    assert archive_bytes(again) == archive_bytes(out)


def test_postprocess_snapshot_selection(pipeline):
    archive = pipeline / "run_a" / "pilot"
    out = pipeline / "pp0"
    assert main([
        "postprocess", "--archive", str(archive), "--snapshot", "0",
        "--out", str(out),
    ]) == EXIT_OK
    assert json.loads((out / "estimates.json").read_text())["temperature"] == 0.0
    assert main([
        "postprocess", "--archive", str(archive), "--snapshot", "99",
        "--out", str(pipeline / "pp99"),
    ]) == EXIT_CONFIG


def test_postprocess_bad_integrand(pipeline):
    archive = pipeline / "run_a" / "pilot"
    assert main([
        "postprocess", "--archive", str(archive), "--integrands", "coord=9",
        "--out", str(pipeline / "ppbad"),
    ]) == EXIT_CONFIG
    assert main([
        "postprocess", "--archive", str(archive), "--integrands", "cubes",
        "--out", str(pipeline / "ppbad2"),
    ]) == EXIT_CONFIG


def test_evidence_reports(pipeline):
    archive = pipeline / "run_a" / "pilot"
    out = pipeline / "ev"
    code = main([
        "evidence", "--archive", str(archive), "--estimator", "cti2",
        "--methods", "vanilla,zv:Q=2", "--out", str(out),
    ])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["estimator"] == "cti2"
    assert len(summary["reports"]) == 2
    for row in summary["reports"]:
        report = json.loads((out / row["file"]).read_text())
        assert report["estimator"] == "cti2"
        assert row["log_evidence"] == report["log_evidence"]
    # analytic log evidence of this fixture is -3.81996...; 64 particles land nearby
    for row in summary["reports"]:
        assert abs(row["log_evidence"] + 3.81996) < 0.3


def test_evidence_posthoc_and_smc_estimator(pipeline):
    archive = pipeline / "run_a" / "pilot"
    out = pipeline / "ev_smc"
    assert main([
        "evidence", "--archive", str(archive), "--estimator", "smc",
        "--methods", "zv:Q=1", "--posthoc-rho", "0.95", "--out", str(out),
    ]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["posthoc_rho"] == 0.95
    assert summary["n_temperatures"] >= 2


def _archive_with_manifest(pipeline, tmp_path, name, edit):
    archive = tmp_path / name
    shutil.copytree(pipeline / "run_a" / "pilot", archive)
    manifest = json.loads((archive / "manifest.json").read_text())
    edit(manifest)
    (archive / "manifest.json").write_text(json.dumps(manifest))
    return archive


def test_malformed_manifest_exits_config(pipeline, tmp_path, capsys):
    no_incs = _archive_with_manifest(
        pipeline, tmp_path, "no_incs", lambda m: m.pop("log_increments"))
    odd_cfg = _archive_with_manifest(
        pipeline, tmp_path, "odd_cfg", lambda m: m["config"].update(colour="blue"))
    no_temps = _archive_with_manifest(
        pipeline, tmp_path, "no_temps", lambda m: m.pop("temperatures"))
    no_data = _archive_with_manifest(
        pipeline, tmp_path, "no_data", lambda m: m["model"].pop("data"))
    listed = tmp_path / "listed"
    shutil.copytree(no_incs, listed)
    (listed / "manifest.json").write_text("[1, 2]")
    for archive in (no_incs, odd_cfg, no_data, listed):
        capsys.readouterr()
        assert main([
            "evidence", "--archive", str(archive), "--methods", "vanilla",
            "--out", str(tmp_path / f"ev_{archive.name}"),
        ]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
    assert main([
        "postprocess", "--archive", str(no_temps), "--out", str(tmp_path / "pp"),
    ]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def _copy_pilot(pipeline, tmp_path, fmt):
    """The pipeline's pilot archive, rewritten in the CSV layout for ``fmt="csv"``."""
    archive = tmp_path / f"pilot_{fmt}"
    shutil.copytree(pipeline / "run_a" / "pilot", archive)
    if fmt == "csv":
        manifest = json.loads((archive / "manifest.json").read_text())
        ps = load_particle_system(archive, model_from_manifest(manifest["model"]))
        rewrite_as_csv_archive(ps, archive)
    return archive


def _exits_config(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    return code == EXIT_CONFIG and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["npy", "csv"])
def test_postprocess_rejects_truncated_snapshot(pipeline, tmp_path, capsys, fmt):
    archive = _copy_pilot(pipeline, tmp_path, fmt)
    argv = ["postprocess", "--archive", str(archive), "--snapshot", "1",
            "--out", str(tmp_path / "pp")]
    assert main(argv) == EXIT_OK                  # the intact copy loads
    snap = archive / f"t_001.{fmt}"
    if fmt == "csv":
        lines = snap.read_text().splitlines(keepends=True)
        snap.write_text("".join(lines[:33]))      # header plus 32 of 64 rows
    else:
        raw = snap.read_bytes()
        snap.write_bytes(raw[: len(raw) - 32 * 5 * 8])
    assert _exits_config(capsys, argv)


@pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
def test_malformed_npy_snapshot_exits_config(pipeline, tmp_path, capsys, case):
    archive = _copy_pilot(pipeline, tmp_path, "npy")
    MALFORMED_NPY[case](archive)
    assert _exits_config(capsys, ["postprocess", "--archive", str(archive), "--snapshot", "1",
                                  "--out", str(tmp_path / "pp")])
    assert _exits_config(capsys, ["evidence", "--archive", str(archive), "--methods", "vanilla",
                                  "--out", str(tmp_path / "ev")])


def test_postprocess_rejects_snapshot_of_other_dimension(pipeline, tmp_path, capsys):
    archive = _copy_pilot(pipeline, tmp_path, "npy")
    path = archive / "t_001.npy"
    a = np.load(path)                         # columns theta, grad, weight, log_like, log_prior
    np.save(path, np.column_stack([a[:, :1], 0.5 * a[:, :1], a[:, 1:2], a[:, 1:]]))
    argv = ["postprocess", "--archive", str(archive), "--out", str(tmp_path / "pp")]
    assert _exits_config(capsys, [*argv, "--snapshot", "1"])
    assert main([*argv, "--snapshot", "2"]) == EXIT_OK


def test_postprocess_rejects_header_only_csv_snapshot(pipeline, tmp_path, capsys):
    archive = _copy_pilot(pipeline, tmp_path, "csv")
    snap = archive / "t_001.csv"
    snap.write_text(snap.read_text().splitlines(keepends=True)[0])
    assert _exits_config(capsys, ["postprocess", "--archive", str(archive), "--snapshot", "1",
                                  "--out", str(tmp_path / "pp")])


def test_postprocess_shares_cf_weights_across_integrands(pipeline, tmp_path, monkeypatch):
    archive = pipeline / "run_a" / "pilot"
    manifest = json.loads((archive / "manifest.json").read_text())
    s = load_particle_system(archive, model_from_manifest(manifest["model"])).snapshots[-1]
    s = s.sample_set()
    methods = [CfMethod(bandwidth=2.0), CfMethod(kind="polynomial", degree=2)]
    want = [expectation_with_provenance(s, f, m, seed=0).estimate
            for m in methods for f in (s.theta[:, 0], s.theta[:, 0] ** 2)]
    calls = []
    real = cf_mod.cho_factor
    monkeypatch.setattr(cf_mod, "cho_factor", lambda *a, **k: calls.append(1) or real(*a, **k))
    out = tmp_path / "pp"
    assert main(["postprocess", "--archive", str(archive), "--methods", "cf:bw=2,cf:poly",
                 "--integrands", "mean,square", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 2                    # one per kernel, not one per integrand
    rows = json.loads((out / "estimates.json").read_text())["results"]
    assert [r["estimate"] for r in rows] == want


def test_csv_archive_postprocess_and_evidence_match(pipeline, tmp_path):
    csv_archive = _copy_pilot(pipeline, tmp_path, "csv")
    npy_archive = pipeline / "run_a" / "pilot"
    for cmd in (["postprocess", "--methods", "vanilla,zv:Q=2"],
                ["evidence", "--methods", "vanilla,zv:Q=2"]):
        outs = []
        for archive in (npy_archive, csv_archive):
            out = tmp_path / f"{cmd[0]}_{archive.name}"
            assert main([*cmd, "--archive", str(archive), "--out", str(out)]) == EXIT_OK
            payload = {}
            for path in sorted(out.glob("*.json")):
                if path.name != "timings.json":
                    rows = json.loads(path.read_text())
                    rows.pop("archive", None)
                    payload[path.name] = rows
            outs.append(payload)
        assert outs[0] == outs[1]


def test_efficiency_from_pipeline(pipeline):
    out = pipeline / "eff"
    code = main([
        "efficiency",
        "--inputs", str(pipeline / "pp" / "estimates.json"),
        "--gold-method", "zv:Q=2:ols",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "efficiency.csv").exists()
    assert (out / "efficiency.md").exists()


# --- efficiency table on a hand fixture -------------------------------------------------


def write_estimates(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "archive": "x", "snapshot_index": 0, "temperature": 1.0, "seed": 0,
        "results": [
            {"integrand": i, "method": m, "method_used": m,
             "estimate": e, "raw": e, "detail": {}}
            for i, m, e in rows
        ],
    }))


def read_table(path):
    with open(path, newline="") as fh:
        return {(r["integrand"], r["method"]): r for r in csv.DictReader(fh)}


def test_efficiency_hand_numbers(tmp_path):
    write_estimates(tmp_path / "r1" / "estimates.json",
                    [("m", "vanilla", 0.0), ("m", "zv", 1.0)])
    write_estimates(tmp_path / "r2" / "estimates.json",
                    [("m", "vanilla", 4.0), ("m", "zv", 3.0)])
    out = tmp_path / "eff"
    code = main([
        "efficiency",
        "--inputs", str(tmp_path / "r1" / "estimates.json"),
        str(tmp_path / "r2" / "estimates.json"),
        "--gold", "2.0", "--out", str(out),
    ])
    assert code == EXIT_OK
    table = read_table(out / "efficiency.csv")
    assert float(table[("m", "vanilla")]["mse"]) == 4.0
    assert float(table[("m", "zv")]["mse"]) == 1.0
    assert float(table[("m", "zv")]["efficiency"]) == 4.0
    assert float(table[("m", "vanilla")]["efficiency"]) == 1.0
    assert table[("m", "zv")]["n"] == "2"

    # gold-method convention: replicate mean of the named method
    out2 = tmp_path / "eff2"
    assert main([
        "efficiency",
        "--inputs", str(tmp_path / "r1" / "estimates.json"),
        str(tmp_path / "r2" / "estimates.json"),
        "--gold-method", "zv", "--out", str(out2),
    ]) == EXIT_OK
    assert read_table(out2 / "efficiency.csv") == table   # mean([1,3]) is also 2


def test_efficiency_cap_and_gold_file(tmp_path):
    write_estimates(tmp_path / "r1" / "estimates.json",
                    [("m", "vanilla", 0.0), ("m", "zv", 2.0)])
    write_estimates(tmp_path / "r2" / "estimates.json",
                    [("m", "vanilla", 4.0), ("m", "zv", 2.0)])
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({"m": 2.0}))
    out = tmp_path / "eff"
    assert main([
        "efficiency",
        "--inputs", str(tmp_path / "r1" / "estimates.json"),
        str(tmp_path / "r2" / "estimates.json"),
        "--gold", str(gold), "--out", str(out),
    ]) == EXIT_OK
    table = read_table(out / "efficiency.csv")
    assert float(table[("m", "zv")]["mse"]) == 0.0
    assert float(table[("m", "zv")]["efficiency"]) == 1e12    # capped zero-MSE ratio

    bad_gold = tmp_path / "bad_gold.json"
    bad_gold.write_text(json.dumps({"other": 1.0}))
    assert main([
        "efficiency", "--inputs", str(tmp_path / "r1" / "estimates.json"),
        "--gold", str(bad_gold), "--out", str(tmp_path / "eff_bad"),
    ]) == EXIT_CONFIG


def test_efficiency_gold_flags_are_exclusive(tmp_path):
    write_estimates(tmp_path / "r" / "estimates.json", [("m", "vanilla", 1.0)])
    inp = str(tmp_path / "r" / "estimates.json")
    assert main(["efficiency", "--inputs", inp, "--out",
                 str(tmp_path / "o1")]) == EXIT_CONFIG
    assert main(["efficiency", "--inputs", inp, "--gold", "1.0",
                 "--gold-method", "vanilla", "--out", str(tmp_path / "o2")]) == EXIT_CONFIG


def test_efficiency_requires_vanilla(tmp_path):
    write_estimates(tmp_path / "r" / "estimates.json", [("m", "zv", 1.0)])
    assert main([
        "efficiency", "--inputs", str(tmp_path / "r" / "estimates.json"),
        "--gold", "1.0", "--out", str(tmp_path / "o"),
    ]) == EXIT_CONFIG


# --- exit codes ------------------------------------------------------------------------


def test_exit_config_on_bad_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "mystery"}))
    assert main(["smc", "--model", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG



@pytest.mark.parametrize("manifest", [
    {"kind": "conjugate_gaussian", "prior_mean": [0.0], "prior_cov": [[1.0]],
     "obs_cov": [[1.0]]},                                         # no data
    {"kind": "gaussian", "mu": [0.0]},                            # no sigma
    {"kind": "gaussian", "mu": [0.0], "sigma": "abc"},            # not a number
])
def test_smc_malformed_model_manifest_exits_config(tmp_path, capsys, manifest):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(manifest))
    assert main(["smc", "--model", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and "malformed model manifest" in err
    assert "Traceback" not in err


def test_smc_rejected_manifest_leaves_no_output_directory(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"kind": "gaussian", "mu": [0.0]}))    # no sigma
    out = tmp_path / "o"
    assert main(["smc", "--model", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_exit_io_on_missing_files(tmp_path):
    assert main(["efficiency", "--inputs", str(tmp_path / "absent.json"),
                 "--gold", "0.0", "--out", str(tmp_path / "o")]) == EXIT_IO
    assert main(["smc", "--model", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o2")]) == EXIT_IO


def test_exit_numeric_on_insufficient_samples(model_file, tmp_path):
    out = tmp_path / "tiny"
    assert main([
        "smc", "--model", str(model_file), "--n", "2", "--rho", "0.5",
        "--hmin", "0.1", "--hmax", "1.0", "--max-repeats", "2",
        "--seed", "3", "--out", str(out),
    ]) == EXIT_OK
    assert main([
        "postprocess", "--archive", str(out / "pilot"),
        "--methods", "zv:Q=1:split", "--out", str(tmp_path / "pp"),
    ]) == EXIT_NUMERIC


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as ei:
        main(["transmogrify"])
    assert ei.value.code == 2
