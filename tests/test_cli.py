"""Command-line surface: method grammar, exit codes, pipeline reproducibility."""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import fields
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steincv.cf as cf_mod
from steincv.cf import KernelSpec, cf_cv_bandwidth
from conftest import MALFORMED_MANIFEST, MALFORMED_NPY, rewrite_as_csv_archive, unit_snapshot
from steincv.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    _smc_config,
    build_parser,
    main,
    parse_method,
    parse_methods,
)
from steincv.errors import InvalidInput
from steincv.evidence import (
    VANILLA,
    CfMethod,
    CrossvalMethod,
    cti_estimate,
    expectation_with_provenance,
    method_label,
)
from steincv.models import model_from_manifest
from steincv.polybasis import SubsetSpec
from steincv.regression import CvConfig
from steincv.samples import IntegrandValues, SampleSet
from steincv.smc import SmcConfig, TemperatureSchedule, load_particle_system
from steincv.zvcv import ZvSpec, crossval_select


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
    for bad in ("cf:bw=tiny", "cf:bw=inf", "cf:folds=1", "cf:poly:Q=0", "cf:poly:Q=-1"):
        with pytest.raises(InvalidInput):
            parse_method(bad)


def test_parse_method_crossval_and_unknown():
    assert parse_method("crossval") == CrossvalMethod()
    assert parse_method("crossval:maxQ=3") == CrossvalMethod(max_degree=3)
    with pytest.raises(InvalidInput):
        parse_method("crossval:minQ=2")
    with pytest.raises(InvalidInput):
        parse_method("magic")


@pytest.mark.parametrize("token", ["crossval:maxQ=0", "crossval:maxQ=-1", "crossval:maxQ=-3"])
def test_crossval_order_cap_below_one_is_rejected(token):
    # crossval scores Q = 1 before it reads the cap, so these used to run the
    # maxQ=1 selection under a label naming another
    with pytest.raises(InvalidInput, match="max_degree"):
        parse_method(token)


def test_parse_methods_list():
    got = parse_methods("vanilla, zv:Q=1 ,cf")
    assert got == [VANILLA, ZvSpec(degree=1), CfMethod()]
    with pytest.raises(InvalidInput):
        parse_methods(" , ")


@pytest.mark.parametrize("spec", ["zv,zv:Q=2", "vanilla,none", "cf:bw=3,cf:bw=3.0",
                                  "zv:ridge:lam=1,zv:lam=1:ridge"])
def test_parse_methods_rejects_a_method_listed_twice(spec):
    with pytest.raises(InvalidInput, match="listed twice"):
        parse_methods(spec)


def _int_ref(text, what):
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(f"cannot parse {what} from {text!r}") from None


def _float_ref(text, what):
    try:
        return float(text)
    except ValueError:
        raise InvalidInput(f"cannot parse {what} from {text!r}") from None


def parse_method_reference(token):
    """The method grammar written out head by head: the oracle of parse_method."""
    parts = token.strip().split(":")
    head, rest = parts[0], parts[1:]
    if head in ("vanilla", "none"):
        if rest:
            raise InvalidInput(f"{head!r} takes no options")
        return VANILLA
    if head == "crossval":
        max_q = None
        for p in rest:
            if p.startswith("maxQ="):
                max_q = _int_ref(p[5:], "maxQ")
            else:
                raise InvalidInput(f"unknown crossval option {p!r}")
        return CrossvalMethod(max_degree=max_q)
    if head == "cf":
        kind, bw, lam, q, folds = "gaussian", None, 0.0, 2, 5
        for p in rest:
            if p == "poly":
                kind = "polynomial"
            elif p.startswith("bw="):
                bw = _float_ref(p[3:], "bandwidth")
            elif p.startswith("lam="):
                lam = _float_ref(p[4:], "lam")
            elif p.startswith("Q="):
                q = _int_ref(p[2:], "Q")
            elif p.startswith("folds="):
                folds = _int_ref(p[6:], "folds")
            else:
                raise InvalidInput(f"unknown cf option {p!r}")
        return CfMethod(bandwidth=bw, lam_r=lam, kind=kind, degree=q, folds=folds)
    if head == "zv":
        q, penalty, lam, split, relaxed, subset = 2, "ols", None, False, False, None
        for p in rest:
            if p.startswith("Q="):
                q = _int_ref(p[2:], "Q")
            elif p in ("ols", "ridge", "lasso"):
                penalty = p
            elif p == "split":
                split = True
            elif p == "relaxed":
                relaxed = True
            elif p.startswith("lam="):
                lam = _float_ref(p[4:], "lam")
            elif p.startswith("sub="):
                cols = [_int_ref(v, "subset index") for v in p[4:].split("+")]
                if any(c < 1 for c in cols):
                    raise InvalidInput("subset indices are 1-based")
                subset = SubsetSpec(tuple(sorted(c - 1 for c in cols)))
            else:
                raise InvalidInput(f"unknown zv option {p!r}")
        return ZvSpec(
            degree=q, penalty=penalty, subset=subset,
            estimator="split" if split else "combined",
            lam=lam, relaxed=relaxed,
        )
    raise InvalidInput(f"unknown method {token!r}")


# Per head the options it takes, each bare word or "key=" with a value.  Draws
# take mostly the head's own options and good values, and mix in other heads'
# options, unknown words and bad numbers.
_OPTIONS = {
    "zv": ["Q=", "ols", "ridge", "lasso", "lam=", "relaxed", "sub=", "split"],
    "cf": ["poly", "bw=", "Q=", "lam=", "folds="],
    "crossval": ["maxQ="],
}
_STRAY = ["", "frobnicate", "minQ=", "poly=", "ols=", "Q", "combined", "gaussian",
          *_OPTIONS["zv"], *_OPTIONS["cf"], *_OPTIONS["crossval"]]
_VALUES = {  # option key -> (good values, bad values)
    "sub=": (["1", "2", "1+3", "3+1", "2+3+4"], ["1+1", "0", "-2", "1+x", "", "+"]),
    "": (["1", "2", "3", "10", "0.1", "2.5", "1e-3", "+4", " 2", "1_0"],
         ["0", "-1", "1e400", "-0.0", "inf", "nan", "x", "", "1.5.2", "3=4", "0x10"]),
}


@st.composite
def method_tokens(draw):
    """Method strings over every head and option: repeated options, bad
    numbers, unknown words and stray whitespace included."""
    head = draw(st.sampled_from(["zv", "cf", "crossval", "vanilla", "none", " zv", "cf ",
                                 "magic", "", "ZV"]))
    own = _OPTIONS.get(head.strip(), [])
    parts = [head]
    for _ in range(draw(st.integers(0, 4))):
        stray = not own or draw(st.sampled_from([False] * 4 + [True]))     # one in five
        option = draw(st.sampled_from(_STRAY if stray else own))
        if option.endswith("="):
            good, bad = _VALUES.get(option, _VALUES[""])
            option += draw(st.sampled_from(bad if draw(st.sampled_from([False] * 3 + [True]))
                                           else good))
        parts.append(option)
    return ":".join(parts)


def _outcome(parse, token):
    try:
        return repr(parse(token))        # repr: equal objects, NaN fields included
    except Exception as exc:             # the type is what is compared
        return type(exc)


@settings(max_examples=600)
@given(method_tokens())
def test_parse_method_matches_the_written_out_grammar(token):
    assert _outcome(parse_method, token) == _outcome(parse_method_reference, token)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)


def _cf_methods(kind, min_degree):
    # a Gaussian method ignores its order, a polynomial one needs Q >= 1
    return st.builds(
        CfMethod, bandwidth=st.none() | _POSITIVE,
        lam_r=st.just(0.0) | st.floats(min_value=0.0, allow_infinity=False),
        kind=st.just(kind), degree=st.integers(min_degree, 9), folds=st.integers(2, 20),
    )


_METHODS = st.one_of(
    st.just(VANILLA),
    st.builds(
        ZvSpec, degree=st.integers(1, 9), penalty=st.sampled_from(["ols", "ridge", "lasso"]),
        subset=st.none() | st.sets(st.integers(0, 12), min_size=1).map(
            lambda ix: SubsetSpec(tuple(sorted(ix)))),
        estimator=st.sampled_from(["combined", "split"]), lam=st.none() | _FINITE,
        relaxed=st.booleans(),
    ),
    _cf_methods("gaussian", -2),
    _cf_methods("polynomial", 1),
    st.builds(CrossvalMethod, max_degree=st.none() | st.integers(1, 9)),
)


@settings(max_examples=300)
@given(_METHODS)
def test_method_label_parses_back(method):
    label = method_label(method)
    assert parse_method(label) == method
    assert parse_method_reference(label) == method


# every field of every method selector, with a value other than its default
NON_DEFAULT = {
    ZvSpec: {"degree": 3, "penalty": "ridge", "subset": SubsetSpec((0,)),
             "estimator": "split", "lam": 0.5, "relaxed": True},
    CfMethod: {"bandwidth": 2.0, "lam_r": 0.1, "kind": "polynomial", "degree": 3, "folds": 4},
    CrossvalMethod: {"max_degree": 3},
}


@pytest.mark.parametrize("cls", list(NON_DEFAULT), ids=lambda cls: cls.__name__)
def test_every_selector_field_shows_in_its_label(cls):
    # a field the label leaves out lets two methods run under one name
    assert set(NON_DEFAULT[cls]) == {f.name for f in fields(cls)}
    default = method_label(cls())
    for name, value in NON_DEFAULT[cls].items():
        method = cls(**{name: value})
        assert method_label(method) != default, name
        assert parse_method(method_label(method)) == method


RECORDED_METHODS = ("vanilla", "zv:ols", "zv:ridge:lam=0.1", "zv:ridge", "zv:lasso", "zv:split",
                    "cf:bw=3:lam=0.01", "cf", "cf:poly:Q=2:lam=0.5", "crossval:maxQ=2")
LINEAR_METHODS = {"zv:ols", "zv:ridge:lam=0.1", "cf:bw=3:lam=0.01", "cf:poly:Q=2:lam=0.5"}


def _small_weighted_set():
    rng = np.random.default_rng(4)
    theta = rng.normal(size=(40, 2))
    return SampleSet(theta=theta, grad_log_target=-theta, weights=rng.uniform(0.5, 1.5, 40))


@pytest.mark.parametrize("token", RECORDED_METHODS)
def test_a_record_names_the_method_that_ran(token):
    s = _small_weighted_set()
    phi = np.exp(0.5 * s.theta[:, 0]) + s.theta[:, 1] ** 2
    method = parse_method(token)
    rec = expectation_with_provenance(s, phi, method, seed=3)
    named = parse_method(rec.method)
    if isinstance(method, CrossvalMethod):
        assert isinstance(named, ZvSpec) and named == parse_method(rec.detail["selected"])
    else:
        assert named == method
    if token in LINEAR_METHODS:
        again = expectation_with_provenance(_small_weighted_set(), phi, named, seed=3)
        assert again.estimate == rec.estimate


INTEGER_FIELDS = {
    "ZvSpec.degree": lambda v: ZvSpec(degree=v),
    "CvConfig.folds": lambda v: CvConfig(folds=v),
    "CfMethod.folds": lambda v: CfMethod(folds=v),
    "CfMethod.degree": lambda v: CfMethod(kind="polynomial", degree=v),
    "KernelSpec.degree": lambda v: KernelSpec(kind="polynomial", degree=v),
    "CrossvalMethod.max_degree": lambda v: CrossvalMethod(max_degree=v),
}
UNLABELLED = {"CvConfig.folds", "KernelSpec.degree"}       # neither is a method selector


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_take_any_integer_and_nothing_else(field):
    # 2.5 used to die at use with a TypeError, and 1.5 or True to run under a
    # label that does not parse back
    make = INTEGER_FIELDS[field]
    for bad in (2.5, 1.5, 2.0, True, "2"):
        with pytest.raises(InvalidInput, match="must be an integer"):
            make(bad)
    for good in (np.int64(2), np.uint8(2)):
        method = make(good)
        assert repr(method) == repr(make(2))        # stored as a plain int
        if field not in UNLABELLED:
            assert parse_method(method_label(method)) == method


INTEGER_ARGUMENTS = {
    "cti_estimate.order": lambda v: cti_estimate(
        TemperatureSchedule((0.0, 1.0), (0, 0)), [unit_snapshot(20, 0.0, seed=0)],
        order=v).estimator,
    "cf_cv_bandwidth.folds": lambda v: cf_cv_bandwidth(
        unit_snapshot(20, 0.0, seed=0).sample_set(), IntegrandValues(np.arange(20.0)),
        [0.5, 2.0], folds=v),
    "crossval_select.min_degree": lambda v: crossval_select(
        unit_snapshot(20, 0.0, seed=0).sample_set(), IntegrandValues(np.arange(20.0)),
        min_degree=v)[1],
}


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_take_any_integer_and_nothing_else(argument):
    # order=2.0 used to name its report "cti2.0", and folds=3.0 died with a TypeError
    call = INTEGER_ARGUMENTS[argument]
    for bad in (2.5, 1.5, 2.0, True, "2"):
        with pytest.raises(InvalidInput, match="must be an integer"):
            call(bad)
    assert call(np.int64(2)) == call(np.uint8(2)) == call(2)


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


def test_postprocess_rejects_a_crossval_cap_below_one(pipeline):
    out = pipeline / "ppmaxq0"
    assert main([
        "postprocess", "--archive", str(pipeline / "run_a" / "pilot"),
        "--methods", "crossval:maxQ=0", "--out", str(out),
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


def test_evidence_writes_one_report_per_method(pipeline, tmp_path, capsys):
    archive = str(pipeline / "run_a" / "pilot")
    out = tmp_path / "ev"
    assert main(["evidence", "--archive", archive, "--out", str(out),
                 "--methods", "zv:Q=2:ridge:lam=0.1,zv:Q=2:ridge:lam=10"]) == EXIT_OK
    rows = json.loads((out / "summary.json").read_text())["reports"]
    assert len({r["file"] for r in rows}) == 2
    methods = [json.loads((out / r["file"]).read_text())["method"] for r in rows]
    assert methods == ["zv:Q=2:ridge:lam=0.1", "zv:Q=2:ridge:lam=10"]
    assert _exits_config(capsys, ["evidence", "--archive", archive, "--methods", "zv,zv:Q=2",
                                  "--out", str(tmp_path / "ev2")])


def _archive_with_manifest(pipeline, tmp_path, name, edit):
    archive = tmp_path / name
    shutil.copytree(pipeline / "run_a" / "pilot", archive)
    manifest = json.loads((archive / "manifest.json").read_text())
    edit(manifest)
    (archive / "manifest.json").write_text(json.dumps(manifest))
    return archive


def test_malformed_manifest_exits_config(pipeline, tmp_path, capsys):
    edits = {
        "no_incs": lambda m: m.pop("log_increments"),
        "no_temps": lambda m: m.pop("temperatures"),
        "no_data": lambda m: m["model"].pop("data"),
        **MALFORMED_MANIFEST,
    }
    archives = [_archive_with_manifest(pipeline, tmp_path, name, edit)
                for name, edit in edits.items()]
    listed = tmp_path / "listed"
    shutil.copytree(archives[0], listed)
    (listed / "manifest.json").write_text("[1, 2]")
    for archive in (*archives, listed):
        for command in ("postprocess", "evidence"):
            assert _exits_config(capsys, [
                command, "--archive", str(archive),
                "--out", str(tmp_path / f"{command}_{archive.name}"),
            ]), (command, archive.name)


def test_evidence_reads_an_archive_naming_the_multinomial_scheme(pipeline, tmp_path):
    # archives written while SmcConfig had a one-valued ``resampling`` option
    # carry it in their config; any other scheme is refused (MALFORMED_MANIFEST)
    archive = _archive_with_manifest(pipeline, tmp_path, "legacy",
                                     lambda m: m["config"].update(resampling="multinomial"))
    for arch, out in ((pipeline / "run_a" / "pilot", tmp_path / "ev"),
                      (archive, tmp_path / "ev_legacy")):
        assert main(["evidence", "--archive", str(arch), "--methods", "vanilla,zv",
                     "--out", str(out)]) == EXIT_OK
    summaries = [json.loads((tmp_path / d / "summary.json").read_text())
                 for d in ("ev", "ev_legacy")]
    assert summaries[0]["reports"] == summaries[1]["reports"]


@pytest.mark.parametrize("command", ["postprocess", "evidence"])
def test_polynomial_cf_order_below_one_exits_before_creating_the_output(pipeline, tmp_path,
                                                                       capsys, command):
    # cf:poly:Q=0 used to pass the grammar and exit 2 only after --out existed
    out = tmp_path / "o"
    assert _exits_config(capsys, [command, "--archive", str(pipeline / "run_a" / "pilot"),
                                  "--methods", "cf:poly:Q=0", "--out", str(out)])
    assert not out.exists()


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


@pytest.mark.parametrize("method", ["cf:folds=0", "cf:folds=1", "cf:bw=inf", "cf:lam=inf",
                                    "cf:lam=nan", "cf:poly:lam=inf"])
def test_degenerate_cf_method_exits_config(pipeline, tmp_path, capsys, method):
    # folds=0 used to run no cross-validation and pick bw = 1e4, folds=1 to
    # exit 3 after "Mean of empty slice", bw=inf to be accepted, and a
    # non-finite lam to exit 3 on a non-finite kernel system
    assert _exits_config(capsys, ["postprocess", "--archive", str(pipeline / "run_a" / "pilot"),
                                  "--methods", method, "--out", str(tmp_path / "pp")])


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


def test_postprocess_tiny_ridge_penalty_with_more_covariates_than_draws(tmp_path):
    # Q = 3 in d = 4 gives J = 34 covariates for 24 particles; a ridge penalty
    # of 1e-20 is the minimum-norm least-squares fit, not a singular solve
    model = tmp_path / "model4.json"
    eye = np.eye(4).tolist()
    model.write_text(json.dumps({
        "kind": "conjugate_gaussian", "prior_mean": [0.0] * 4, "prior_cov": eye,
        "obs_cov": eye, "data": [[1.1, 0.4, -0.3, 0.9], [0.4, -0.2, 0.8, 0.1]],
    }))
    assert main(["smc", "--model", str(model), "--n", "24", "--rho", "0.7",
                 "--hmin", "0.1", "--hmax", "2.0", "--max-repeats", "5", "--seed", "3",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    out = tmp_path / "pp"
    assert main(["postprocess", "--archive", str(tmp_path / "run" / "pilot"),
                 "--methods", "zv:Q=3:ridge:lam=1e-20", "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "estimates.json").read_text())["results"]
    assert len(rows) == 4 and all(np.isfinite(r["estimate"]) for r in rows)


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
    {"kind": "conjugate_gaussian", "prior_mean": [0.0], "prior_cov": [[1.0]],
     "obs_cov": [[1.0]], "data_csv": 3},                          # a number as a path
    {"kind": "conjugate_gaussian", "prior_mean": [0.0], "prior_cov": [[1.0]],
     "obs_cov": [[1.0]], "data_csv": None},                       # null as a path
    {"kind": "logistic", "design_csv": ["x.csv"], "response_csv": "y.csv"},  # a list
])
def test_smc_malformed_model_manifest_exits_config(tmp_path, capsys, manifest):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(manifest))
    assert main(["smc", "--model", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and "malformed model manifest" in err
    assert "Traceback" not in err


NON_UTF8 = b'{"kind": "\xff"}'


def _argv_reading(command, payload, pipeline, tmp_path):
    """argv for ``command`` whose JSON input (model manifest, archive manifest,
    estimates file, or the gold or timings file of ``efficiency``) holds the
    bytes ``payload``."""
    out = str(tmp_path / "out")
    if command in ("postprocess", "evidence"):
        archive = tmp_path / "archive"
        shutil.copytree(pipeline / "run_a" / "pilot", archive)
        (archive / "manifest.json").write_bytes(payload)
        return [command, "--archive", str(archive), "--out", out]
    path = tmp_path / "input.json"
    if command == "smc":
        path.write_bytes(payload)
        return ["smc", "--model", str(path), "--out", out]
    gold = "0.0"
    if command == "efficiency":
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps({"results": [
            {"integrand": "m", "method": "vanilla", "estimate": 1.0}]}))
        side = tmp_path / f"{command}.json"   # efficiency's gold or timings file
        side.write_bytes(payload)
        if command == "gold":
            gold = str(side)
    return ["efficiency", "--inputs", str(path), "--gold", gold, "--out", out]


@pytest.mark.parametrize("command, payload", [
    ("smc", NON_UTF8),
    ("postprocess", NON_UTF8),
    ("evidence", NON_UTF8),
    ("efficiency", NON_UTF8),
    ("smc", b"7"),
    ("efficiency", b"7"),
    ("efficiency", json.dumps({"results": [{"integrand": "m", "method": "vanilla"}]}).encode()),
    ("efficiency", json.dumps({"results": [
        {"integrand": "m", "method": "vanilla", "estimate": "x"}]}).encode()),
    ("gold", json.dumps({"m": "x"}).encode()),
    ("timings", json.dumps({"entries": 7}).encode()),
    ("timings", json.dumps({"entries": {"m|vanilla": "x"}}).encode()),
], ids=["smc-non-utf8", "postprocess-non-utf8", "evidence-non-utf8", "efficiency-non-utf8",
        "smc-top-level-number", "efficiency-top-level-number", "efficiency-no-estimate",
        "efficiency-text-estimate", "efficiency-text-gold", "efficiency-number-timings",
        "efficiency-text-timing"])
def test_malformed_json_exits_config(pipeline, tmp_path, capsys, command, payload):
    assert _exits_config(capsys, _argv_reading(command, payload, pipeline, tmp_path))


def test_smc_rejected_manifest_leaves_no_output_directory(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"kind": "gaussian", "mu": [0.0]}))    # no sigma
    out = tmp_path / "o"
    assert main(["smc", "--model", str(bad), "--out", str(out)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--replicates", -3), ("--jobs", -2), ("--jobs", 0)])
def test_smc_rejects_bad_counts_before_creating_the_output(model_file, tmp_path, capsys,
                                                          flag, value):
    out = tmp_path / "o"
    assert main(["smc", "--model", str(model_file), flag, str(value),
                 "--out", str(out)]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_smc_rejects_an_infinite_step_size_before_creating_the_output(model_file, tmp_path,
                                                                      capsys):
    # --hmax inf used to create --out and end in a traceback from scipy
    out = tmp_path / "o"
    assert _exits_config(capsys, ["smc", "--model", str(model_file), "--hmax", "inf",
                                  "--out", str(out)])
    assert not out.exists()


def test_smc_options_default_to_the_sampler_config():
    args = build_parser().parse_args(["smc", "--model", "M", "--out", "O"])
    assert _smc_config(args) == SmcConfig()
    assert {f.name for f in fields(SmcConfig) if not hasattr(args, f.name)} == {
        "h_grid_size", "bisection_tol"}          # library-only
    args = build_parser().parse_args(["smc", "--model", "M", "--out", "O", "--rho-tilde", "0.8",
                                      "--jump-fraction", "0.4", "--jump-stat", "median"])
    assert _smc_config(args) == SmcConfig(rho_tilde=0.8, jump_fraction=0.4,
                                          jump_threshold_stat="median")


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


# --- malformed inputs: typed errors, never a crash ---------------------------------------


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A model manifest reading its data from a CSV beside it, and its archive."""
    base = tmp_path_factory.mktemp("fuzz_base")
    (base / "data.csv").write_text("1.1\n0.4\n0.9\n")
    model = {"kind": "conjugate_gaussian", "prior_mean": [0.0], "prior_cov": [[1.0]],
             "obs_cov": [[1.0]], "data_csv": "data.csv"}
    (base / "model.json").write_text(json.dumps(model))
    assert main(_fuzz_smc_argv(base / "model.json", base / "run", replicates=0)) == EXIT_OK
    return base


def _fuzz_smc_argv(model, out, replicates=1, seed=5):
    return ["smc", "--model", str(model), "--n", "32", "--rho", "0.7", "--hmin", "0.1",
            "--hmax", "2.0", "--max-repeats", "3", "--replicates", str(replicates),
            "--seed", str(seed), "--out", str(out)]


def _json_paths(node, path=()):
    """The path of every value inside a JSON object, nested ones included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


_SWAPS = [None, "x", True, [], {}, float("nan"), float("inf"), -float("inf"), 0, -1,
          -1e300, 1e300]
_EDITS = ["delete", "lengthen", *range(len(_SWAPS))]


def _mutate(doc, path, edit):
    """Apply one edit at ``path``: delete the key (a list element, so the list
    gets shorter), lengthen a list or wrap a value in one, or swap in a value."""
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if edit == "delete":
        del node[key]
    elif edit == "lengthen":
        value = node[key]
        node[key] = value + value[-1:] if isinstance(value, list) and value else [value]
    else:
        node[key] = _SWAPS[edit]


def _snapshot_edit(arch, edit):
    """Truncate, empty, remove, widen or garble the archive's snapshot t_001."""
    snap = arch / "t_001.npy"
    raw = snap.read_bytes()
    if edit == "missing":
        snap.unlink()
    elif edit == "non_utf8":
        snap.write_bytes(b"\xff\xfe" + raw[2:])
    elif edit == "extra_column":
        a = np.load(snap)
        np.save(snap, np.column_stack([a, a[:, :1]]))
    else:
        snap.write_bytes(raw[: {"truncated": len(raw) // 2, "empty": 0}[edit]])


def _exits_cleanly(argv):
    """Run the CLI in-process: a typed exit code, ``error:`` on any failure."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)          # an escaping exception fails the test here
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), (argv, code, err.getvalue())
    assert code == EXIT_OK or "error:" in err.getvalue(), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code == EXIT_OK


# A huge fuzzed prior_mean overflows ConjugateGaussianModel.log_like to -inf
# with a RuntimeWarning before the run fails typed; ROADMAP item 11 mends it.
@pytest.mark.filterwarnings("default::RuntimeWarning")
@settings(max_examples=120)
@given(data=st.data())
def test_malformed_inputs_exit_with_a_typed_error(fuzz_base, data):
    target = data.draw(st.sampled_from(["model", "archive", "snapshot", "bytes", "method",
                                        "seed"]))
    with tempfile.TemporaryDirectory(dir=fuzz_base) as tmp:
        tmp = Path(tmp)
        for name in ("data.csv", "model.json"):
            shutil.copy(fuzz_base / name, tmp / name)
        arch = tmp / "archive"
        shutil.copytree(fuzz_base / "run" / "pilot", arch)
        methods = "vanilla,zv:Q=1"
        seed = data.draw(st.integers(-2**70, 2**70)) if target == "seed" else None
        seed_args = [] if seed is None else ["--seed", str(seed)]
        rejected = seed is not None and seed < 0
        if target in ("model", "archive"):
            path = tmp / "model.json" if target == "model" else arch / "manifest.json"
            doc = json.loads(path.read_text())
            _mutate(doc, data.draw(st.sampled_from(list(_json_paths(doc)))),
                    data.draw(st.sampled_from(_EDITS)))
            path.write_text(json.dumps(doc))
        elif target == "snapshot":
            _snapshot_edit(arch, data.draw(st.sampled_from(
                ["truncated", "empty", "missing", "non_utf8", "extra_column"])))
        elif target == "bytes":
            victim = data.draw(st.sampled_from(["model.json", "data.csv", "archive/manifest.json"]))
            (tmp / victim).write_bytes(b'{"kind": "\xff", "x": [1.\xfe]}\n')
        elif target == "method":
            methods = data.draw(method_tokens())
        elif target == "seed":
            methods = "vanilla,zv:Q=1:split"      # a method that reads its seed

        ok = []
        if target in ("model", "bytes"):
            ok.append(_exits_cleanly(_fuzz_smc_argv(tmp / "model.json", tmp / "smc")))
        if rejected:   # a valid seed would only start a full sampler run
            ok.append(_exits_cleanly(_fuzz_smc_argv(tmp / "model.json", tmp / "smc",
                                                    seed=seed)))
        pp = tmp / "pp"
        ok.append(_exits_cleanly(["postprocess", "--archive", str(arch), "--snapshot", "1",
                                  "--methods", methods, *seed_args, "--out", str(pp)]))
        if ok[-1]:
            _exits_cleanly(["efficiency", "--inputs", str(pp / "estimates.json"),
                            "--gold-method", "vanilla", "--out", str(tmp / "eff")])
        ok.append(_exits_cleanly(["evidence", "--archive", str(arch), "--methods", methods,
                                  *seed_args, "--out", str(tmp / "ev")]))
        if rejected:
            assert not any(ok)


def test_a_negative_seed_exits_2_and_writes_nothing(fuzz_base, tmp_path, capsys):
    arch = str(fuzz_base / "run" / "pilot")
    for command in (_fuzz_smc_argv(fuzz_base / "model.json", tmp_path / "smc", seed=-1),
                    ["postprocess", "--archive", arch, "--seed", "-1",
                     "--out", str(tmp_path / "pp")],
                    ["evidence", "--archive", arch, "--seed", "-1",
                     "--out", str(tmp_path / "ev")]):
        assert main(command) == EXIT_CONFIG
        assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
