"""Command-line front-end: sampling runs, post-processing, evidence, efficiency.

Subcommands
-----------
smc          adaptive pilot run plus seeded non-adaptive replays (one archive each)
postprocess  control-variate estimates of integrands from an archived population
evidence     CTI / telescoping-product evidence reports from an archive
efficiency   MSE-ratio tables across replicate estimate files

All randomness flows from ``--seed``; given identical inputs and seeds every
output file is byte-identical.  Wall-clock times and timestamps live only in
the ``run.log`` / ``timings.json`` sidecars.  Exit codes: 2 configuration,
3 numerical failure, 4 I/O.

Method strings (``--methods``, comma-separated):

    vanilla                      plain weighted mean
    zv[:Q=2][:ols|ridge|lasso][:lam=F][:split][:relaxed][:sub=1+3]
    cf[:bw=F][:lam=F][:folds=K] | cf:poly[:Q=2][:lam=F]
    crossval[:maxQ=I]

Subset indices in ``sub=`` are 1-based coordinate numbers joined by '+'.
Outputs name each method by a label that parses back to it (every option
off its default is printed).  A method listed twice is an error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    BasisTooLarge,
    ConditioningError,
    ConvergenceError,
    DegenerateWeights,
    DomainError,
    InsufficientSamples,
    InvalidInput,
    InvalidSchedule,
)
from .evidence import (
    VANILLA,
    CfMethod,
    CrossvalMethod,
    EvidenceReport,
    _derive_seed,
    cti_estimate,
    expectation_with_provenance,
    method_label,
    smc_evidence_estimate,
)
from .models import _manifest_fields, _resolve_data_paths, model_from_manifest
from .polybasis import SubsetSpec
from .smc import (
    SmcConfig,
    _read_manifest,
    _read_snapshot,
    load_particle_system,
    posthoc_schedule,
    run_smc,
    save_particle_system,
)
from .zvcv import ZvSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# --- method grammar -----------------------------------------------------------


def _num(text: str, conv, what: str):
    try:
        return conv(text)
    except ValueError:
        raise InvalidInput(f"cannot parse {what} from {text!r}") from None


def _subset(text: str) -> SubsetSpec:
    cols = [_num(v, int, "subset index") for v in text.split("+")]
    if any(c < 1 for c in cols):
        raise InvalidInput("subset indices are 1-based")
    return SubsetSpec(tuple(sorted(c - 1 for c in cols)))


# Per method head: its selector and its options.  A bare word sets a field to
# a fixed value; a "key=" option converts the text after "=" into the field.
# The selectors' label() methods print the same options back.
_GRAMMAR = {
    "vanilla": (lambda: VANILLA, {}),
    "none": (lambda: VANILLA, {}),
    "zv": (ZvSpec, {
        "Q=": ("degree", int), "ols": ("penalty", "ols"), "ridge": ("penalty", "ridge"),
        "lasso": ("penalty", "lasso"), "lam=": ("lam", float), "relaxed": ("relaxed", True),
        "sub=": ("subset", _subset), "split": ("estimator", "split"),
    }),
    "cf": (CfMethod, {
        "poly": ("kind", "polynomial"), "bw=": ("bandwidth", float), "Q=": ("degree", int),
        "lam=": ("lam_r", float), "folds=": ("folds", int),
    }),
    "crossval": (CrossvalMethod, {"maxQ=": ("max_degree", int)}),
}


def parse_method(token: str):
    """Parse one method string into a selector object; a repeated option's
    last value wins."""
    head, *rest = token.strip().split(":")
    if head not in _GRAMMAR:
        raise InvalidInput(f"unknown method {token!r}")
    selector, options = _GRAMMAR[head]
    fields = {}
    for p in rest:
        key, eq, text = p.partition("=")
        if key + eq not in options:
            raise InvalidInput(f"unknown {head} option {p!r}")
        name, value = options[key + eq]
        fields[name] = _num(text, value, key) if eq else value
    return selector(**fields)


def parse_methods(spec: str):
    tokens = [t for t in (s.strip() for s in spec.split(",")) if t]
    if not tokens:
        raise InvalidInput("empty method list")
    methods = [parse_method(t) for t in tokens]
    labels = [method_label(m) for m in methods]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise InvalidInput(f"method listed twice: {', '.join(repeated)}")
    return methods


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "-", label)


# --- sidecars -----------------------------------------------------------------


class _Sidecar:
    """Timestamped log lines and named durations, kept out of the main outputs."""

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.lines: list[str] = []
        self.timings: dict = {"entries": {}}

    def note(self, msg: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat()
        self.lines.append(f"{stamp} {msg}")

    def record(self, key: str, seconds: float) -> None:
        self.timings["entries"][key] = seconds

    def flush(self) -> None:
        self.timings["total_s"] = float(sum(self.timings["entries"].values()))
        (self.out / "run.log").write_text("".join(line + "\n" for line in self.lines))
        _write_json(self.out / "timings.json", self.timings)


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:   # also UnicodeDecodeError
        raise InvalidInput(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInput(f"{path} does not hold a JSON object")
    return payload


# --- smc ----------------------------------------------------------------------


def _run_replicate(model_manifest: dict, record, config: SmcConfig, out_dir: str) -> float:
    """One replay run saved to ``out_dir``; returns the sampler's wall time.  It
    rebuilds the model and writes only ``out_dir``, so it can run in a worker."""
    model = model_from_manifest(model_manifest)
    t0 = time.perf_counter()
    ps = run_smc(model, config, replay=record)
    elapsed = time.perf_counter() - t0
    save_particle_system(ps, out_dir, model_manifest=model_manifest)
    return elapsed


def _smc_config(args) -> SmcConfig:
    """The ``smc`` options' SmcConfig: an option's ``dest`` is the field it sets."""
    return SmcConfig(**{f.name: getattr(args, f.name) for f in fields(SmcConfig)
                        if hasattr(args, f.name)})


def cmd_smc(args) -> int:
    manifest = _read_json(Path(args.model))
    resolved = _resolve_data_paths(manifest, Path(args.model).parent)
    model = model_from_manifest(resolved)
    cfg = _smc_config(args)

    if args.replicates < 0:
        raise InvalidInput(f"--replicates must be >= 0, got {args.replicates}")
    if args.jobs < 1:
        raise InvalidInput(f"--jobs must be >= 1, got {args.jobs}")

    # --out is created only once the manifest and configuration are accepted
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    side = _Sidecar(out)
    side.note(f"pilot run starting: N={cfg.n_particles} seed={cfg.seed}")
    t0 = time.perf_counter()
    pilot = run_smc(model, cfg)
    side.record("pilot", time.perf_counter() - t0)
    save_particle_system(pilot, out / "pilot", model_manifest=resolved)
    side.note(f"pilot finished: {len(pilot.snapshots)} temperatures")

    replicate = partial(_run_replicate, resolved, pilot.replay_record())
    replicate_seeds = [cfg.seed + 1 + r for r in range(args.replicates)]
    cfgs = [replace(cfg, seed=seed_r) for seed_r in replicate_seeds]
    dirs = [str(out / "replicates" / f"rep_{r:03d}") for r in range(args.replicates)]
    jobs = min(args.jobs, args.replicates)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            times = list(pool.map(replicate, cfgs, dirs))
    else:
        times = list(map(replicate, cfgs, dirs))
    for r, elapsed in enumerate(times):
        side.record(f"replicate_{r:03d}", elapsed)
    side.note(f"{args.replicates} replay runs finished")

    _write_json(out / "run_config.json", {
        "command": "smc",
        "model_manifest_path": str(args.model),
        "model": resolved,
        "smc": asdict(cfg),
        "replicates": args.replicates,
        "replicate_seeds": replicate_seeds,
    })
    side.flush()
    temps = ", ".join(f"{t:.4f}" for t in pilot.temperatures)
    print(f"pilot: {len(pilot.snapshots)} temperatures [{temps}]")
    print(f"pilot log evidence (reweighting increments): {pilot.log_evidence!r}")
    print(f"replicates: {args.replicates}")
    return EXIT_OK


# --- postprocess ----------------------------------------------------------------


def _build_integrands(tokens: str, theta: np.ndarray):
    d = theta.shape[1]
    out = []
    for token in (t.strip() for t in tokens.split(",")):
        if not token:
            continue
        if token in ("mean", "identity"):
            out.extend((f"theta{j + 1}", theta[:, j]) for j in range(d))
        elif token == "square":
            out.extend((f"theta{j + 1}^2", theta[:, j] ** 2) for j in range(d))
        elif token.startswith("coord="):
            k = _num(token[6:], int, "coordinate")
            if not 1 <= k <= d:
                raise InvalidInput(f"coordinate {k} out of range 1..{d}")
            out.append((f"theta{k}", theta[:, k - 1]))
        else:
            raise InvalidInput(f"unknown integrand {token!r}")
    if not out:
        raise InvalidInput("empty integrand list")
    return out


def cmd_postprocess(args) -> int:
    archive = Path(args.archive)
    manifest = _read_manifest(archive)
    model = model_from_manifest(manifest.model) if manifest.model else None
    n_temps = len(manifest.record.temperatures)
    idx = -1 if args.snapshot is None else args.snapshot
    if not -n_temps <= idx < n_temps:
        raise InvalidInput(f"snapshot index {args.snapshot} out of range")
    idx %= n_temps
    s = _read_snapshot(archive, idx, manifest.format, manifest.n_particles)
    if model is not None and s.dim != model.dim:
        raise InvalidInput(f"snapshot {idx} has dim {s.dim}, the archive's model has {model.dim}")
    temperature = manifest.record.temperatures[idx]

    methods = parse_methods(args.methods)
    integrands = _build_integrands(args.integrands, s.theta)
    # derived before --out exists, so a rejected seed leaves nothing behind
    seeds = [[_derive_seed(args.seed, mi, ii) for ii in range(len(integrands))]
             for mi in range(len(methods))]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    side = _Sidecar(out)
    results = []
    for method, method_seeds in zip(methods, seeds):
        label = method_label(method)
        for (name, values), seed in zip(integrands, method_seeds):
            t0 = time.perf_counter()
            rec = expectation_with_provenance(
                s, values, method, seed=seed, temperature=temperature,
            )
            side.record(f"{name}|{label}", time.perf_counter() - t0)
            results.append({
                "integrand": name,
                "method": label,
                "method_used": rec.method,
                "estimate": rec.estimate,
                "raw": rec.raw,
                "detail": rec.detail,
            })
    _write_json(out / "estimates.json", {
        "archive": str(args.archive),
        "snapshot_index": idx,
        "temperature": temperature,
        "seed": args.seed,
        "results": results,
    })
    side.note(f"{len(results)} estimates written")
    side.flush()
    for r in results:
        print(f"{r['integrand']:>12}  {r['method']:<24} {r['estimate']!r}")
    return EXIT_OK


# --- evidence -------------------------------------------------------------------


def cmd_evidence(args) -> int:
    model = _read_manifest(args.archive).model
    if not model:
        raise InvalidInput("archive manifest has no embedded model")
    ps = load_particle_system(args.archive, model_from_manifest(model))
    schedule = ps.schedule()
    if args.posthoc_rho is not None:
        schedule = posthoc_schedule(ps, args.posthoc_rho)

    methods = parse_methods(args.methods)
    seeds = [_derive_seed(args.seed, mi) for mi in range(len(methods))]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    side = _Sidecar(out)
    summary = []
    for method, seed in zip(methods, seeds):
        label = method_label(method)
        t0 = time.perf_counter()
        if args.estimator == "smc":
            report = smc_evidence_estimate(schedule, ps, cv=method, seed=seed)
        else:
            order = 1 if args.estimator == "cti1" else 2
            report = cti_estimate(schedule, ps, order=order, cv=method,
                                  v_mean_mode=args.v_mean_mode, seed=seed)
        side.record(f"log_evidence:{args.estimator}|{label}",
                    time.perf_counter() - t0)
        name = f"evidence_{args.estimator}_{_slug(label)}.json"
        report.save(out / name)
        summary.append({
            "file": name,
            "method": label,
            "log_evidence": report.log_evidence,
            "fallbacks_triggered": report.fallbacks_triggered,
        })
    _write_json(out / "summary.json", {
        "archive": str(args.archive),
        "estimator": args.estimator,
        "posthoc_rho": args.posthoc_rho,
        "n_temperatures": len(schedule),
        "seed": args.seed,
        "reports": summary,
    })
    side.note(f"{len(summary)} evidence reports written")
    side.flush()
    for row in summary:
        print(f"{args.estimator}  {row['method']:<24} log Z = {row['log_evidence']!r}")
    return EXIT_OK


# --- efficiency -----------------------------------------------------------------


def _load_estimate_rows(path: Path):
    """(integrand, method, estimate) rows from one estimates/report file."""
    payload = _read_json(path)
    with _manifest_fields(f"estimates file {path}"):
        if "results" in payload:
            return [(r["integrand"], r["method"], float(r["estimate"]))
                    for r in payload["results"]]
        if "per_expectation" in payload:
            report = EvidenceReport.from_dict(payload)
            return [(f"log_evidence:{report.estimator}", report.method, report.log_evidence)]
        if "reports" in payload:   # evidence summary.json
            name = f"log_evidence:{payload['estimator']}"
            return [(name, r["method"], float(r["log_evidence"])) for r in payload["reports"]]
    raise InvalidInput(f"{path} is not an estimates or evidence file")


def _sibling_timings(path: Path) -> dict:
    """Seconds per ``integrand|method`` key from the ``timings.json`` beside
    ``path``; a null entry counts as missing."""
    t = path.parent / "timings.json"
    if not t.exists():
        return {}
    entries = _read_json(t).get("entries", {})
    with _manifest_fields(f"timings file {t}"):
        return {key: float(v) for key, v in entries.items() if v is not None}


def _parse_gold(args, groups):
    if (args.gold is None) == (args.gold_method is None):
        raise InvalidInput("exactly one of --gold / --gold-method is required")
    integrands = sorted({key[0] for key in groups})
    if args.gold is not None:
        try:
            value = float(args.gold)
            return {name: value for name in integrands}
        except ValueError:
            table = _read_json(Path(args.gold))
            missing = [n for n in integrands if n not in table]
            if missing:
                raise InvalidInput(f"gold file lacks integrands: {missing}")
            with _manifest_fields(f"gold file {args.gold}"):
                return {n: float(table[n]) for n in integrands}
    gold = {}
    for name in integrands:
        key = (name, args.gold_method)
        if key not in groups:
            raise InvalidInput(
                f"gold method {args.gold_method!r} has no estimates for {name!r}"
            )
        gold[name] = float(np.mean(groups[key]["estimates"]))
    return gold


_EFFICIENCY_CAP = 1e12


def _capped_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else _EFFICIENCY_CAP
    return min(num / den, _EFFICIENCY_CAP)


def cmd_efficiency(args) -> int:
    groups: dict = {}
    for raw in args.inputs:
        path = Path(raw)
        times = _sibling_timings(path)
        for integrand, method, estimate in _load_estimate_rows(path):
            g = groups.setdefault((integrand, method),
                                  {"estimates": [], "times": []})
            g["estimates"].append(estimate)
            t = times.get(f"{integrand}|{method}")
            if t is not None:
                g["times"].append(t)
    if not groups:
        raise InvalidInput("no estimates found in the input files")
    gold = _parse_gold(args, groups)

    integrands = sorted({k[0] for k in groups})
    rows = []
    for name in integrands:
        if (name, "vanilla") not in groups:
            raise InvalidInput(f"no vanilla estimates for {name!r}")
        mse = {}
        mean_time = {}
        for (iname, method), g in groups.items():
            if iname != name:
                continue
            e = np.asarray(g["estimates"], dtype=float)
            mse[method] = float(np.mean((e - gold[name]) ** 2))
            if g["times"] and len(g["times"]) == len(g["estimates"]):
                mean_time[method] = float(np.mean(g["times"]))
        base = mse["vanilla"]
        base_time = mean_time.get("vanilla")
        for method in sorted(mse):
            eff = _capped_ratio(base, mse[method])
            t = mean_time.get(method)
            overall = None
            if base_time is not None and t is not None:
                overall = _capped_ratio(base * base_time, mse[method] * t)
            rows.append({
                "integrand": name,
                "method": method,
                "n": len(groups[(name, method)]["estimates"]),
                "mse": mse[method],
                "efficiency": eff,
                "mean_time_s": t,
                "overall_efficiency": overall,
            })

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["integrand", "method", "n", "mse", "efficiency",
              "mean_time_s", "overall_efficiency"]

    def cells(r, fmt):
        return [fmt(r[h]) if isinstance(r[h], float) else "" if r[h] is None else str(r[h])
                for h in header]

    csv_lines = [",".join(header), *(",".join(cells(r, repr)) for r in rows)]
    (out / "efficiency.csv").write_text("\n".join(csv_lines) + "\n")
    md = ["| " + " | ".join(header) + " |", "|" + "|".join(" --- " for _ in header) + "|",
          *("| " + " | ".join(cells(r, lambda v: f"{v:.6g}")) + " |" for r in rows)]
    (out / "efficiency.md").write_text("\n".join(md) + "\n")
    print("\n".join(md))
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincv",
        description="Stein control variates over annealing SMC runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smc", help="adaptive pilot run plus seeded replays")
    p.add_argument("--model", required=True, help="model manifest JSON")

    def config_option(flag, field, **kw):     # sets the SmcConfig field, from its default
        p.add_argument(flag, dest=field, default=getattr(SmcConfig, field), **kw)

    config_option("--n", "n_particles", type=int, help="number of particles")
    config_option("--rho", "rho", type=float, help="ESS fraction target")
    config_option("--rho-tilde", "rho_tilde", type=float, help="post-hoc CESS fraction")
    config_option("--hmin", "h_min", type=float)
    config_option("--hmax", "h_max", type=float)
    config_option("--jump-fraction", "jump_fraction", type=float)
    config_option("--jump-stat", "jump_threshold_stat", choices=("mean", "median"))
    config_option("--max-repeats", "max_repeats", type=int)
    p.add_argument("--replicates", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="replicate pool width (1 = sequential)")
    config_option("--seed", "seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smc)

    p = sub.add_parser("postprocess", help="estimate integrands from an archive")
    p.add_argument("--archive", required=True, help="snapshot archive directory")
    p.add_argument("--methods", default="vanilla")
    p.add_argument("--integrands", default="mean",
                   help="comma list: mean | square | coord=K")
    p.add_argument("--snapshot", type=int, default=None,
                   help="snapshot index (default: last)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evidence", help="evidence reports from an archive")
    p.add_argument("--archive", required=True)
    p.add_argument("--estimator", choices=("cti1", "cti2", "smc"), default="cti2")
    p.add_argument("--methods", default="vanilla")
    p.add_argument("--posthoc-rho", type=float, default=None, dest="posthoc_rho",
                   help="reschedule temperatures to this CESS fraction first")
    p.add_argument("--v-mean-mode", choices=("cv", "raw"), default="cv",
                   dest="v_mean_mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evidence)

    p = sub.add_parser("efficiency", help="MSE-ratio tables across replicates")
    p.add_argument("--inputs", nargs="+", required=True,
                   help="estimates.json / evidence report files")
    p.add_argument("--gold", default=None,
                   help="gold-standard value, or a JSON file {integrand: value}")
    p.add_argument("--gold-method", default=None, dest="gold_method",
                   help="method whose replicate mean is the gold standard")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_efficiency)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInput, InvalidSchedule, BasisTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, ConditioningError, DegenerateWeights,
            DomainError, InsufficientSamples) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
