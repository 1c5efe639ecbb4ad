"""Command-line entry point.

Subcommands: synth, train, eval, ablate, gradcheck, export. synth, train
and ablate take configuration from a flat "key = value" file with dotted
keys (model.levels, train.learning_rate, synth.noise), one per field of
ModelConfig, TrainConfig and SyntheticSpec; repeated --set key=value flags
override file values. Each subcommand takes only its own scopes: synth the
synth.* keys, train and ablate the model.* and train.* keys (also in
ablate --variant); any other key is a config error. Every run writes a
resolved-config snapshot to its output directory. Exit codes: 0 success,
1 verification/metric failure, 2 usage/config error (an output path that
cannot be written included). Logs go to stderr, data to files and stdout.
"""

import argparse
import dataclasses
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .data import (
    DatasetManifest,
    SyntheticSpec,
    export_connectome,
    generate_synthetic,
    load_dataset,
    load_manifest,
    write_dataset,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    ForwardError,
    OracleError,
    ShapeError,
    TrainingError,
)
from .metrics import METRIC_LABELS, compute_metrics
from .model import MLCGCN, ModelConfig
from .training import (
    TABLE_VARIANTS,
    TrainConfig,
    ablation_table,
    evaluate_model,
    gradcheck_config,
    graph_stats,
    run_ablation,
    run_cv,
    run_gradcheck,
)

log = logging.getLogger("mlcgcn")

OUTPUT_ENV = "MLCGCN_OUT"


def _bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _level_subset(text):
    low = str(text).strip().lower()
    if low in ("", "all", "none"):
        return None
    return tuple(int(v) for v in low.split("+"))


_PARSERS = {int: int, float: float, bool: _bool, Optional[tuple]: _level_subset}
_KNOWN_KEYS = {
    f"{scope}.{f.name}": _PARSERS[f.type]
    for scope, cls in (("model", ModelConfig), ("train", TrainConfig), ("synth", SyntheticSpec))
    for f in dataclasses.fields(cls)
}
# The config scopes each configurable subcommand takes.
_SCOPES = {"synth": ("synth",), "train": ("model", "train"), "ablate": ("model", "train")}


def parse_config_file(path):
    """Read "key = value" lines; '#' starts a comment; unknown keys rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _parse_key(key, value, subcommand):
    """Typed value of one config key, which must be in the subcommand's scopes."""
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    scopes = _SCOPES[subcommand]
    if key.partition(".")[0] not in scopes:
        raise ConfigError(
            f"config key {key!r} does not apply to {subcommand}, which takes "
            + " and ".join(f"{scope}.*" for scope in scopes)
        )
    try:
        return _KNOWN_KEYS[key](value)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def resolve_config(args):
    """Merge config file and --set overrides into a typed key->value dict.

    A config file's `run.*` lines are a snapshot's record of its run and are
    skipped; a `--set run.*` is an unknown key like any other."""
    raw = parse_config_file(args.config) if args.config else {}
    raw = {key: value for key, value in raw.items() if not key.startswith("run.")}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return {key: _parse_key(key, value, args.subcommand) for key, value in raw.items()}


def _dataclass_from_keys(cls, prefix, typed):
    kwargs = {key[len(prefix):]: value for key, value in typed.items() if key.startswith(prefix)}
    return cls(**kwargs)


def _out_dir(args):
    out = args.out or os.environ.get(OUTPUT_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_snapshot(outdir, args, configs=None):
    """Write resolved.cfg: a `run.<dest>` line per parsed argument (a record of
    the run, ignored on input), then every field of each config object in
    `configs` (scope -> dataclass) as a `scope.field` key, so `--config
    resolved.cfg` reproduces the run."""
    lines = [f"run.{dest} = {value}" for dest, value in vars(args).items()
             if dest not in ("func", "out", "config", "set")]
    keys = {f"{scope}.{f.name}": getattr(cfg, f.name)
            for scope, cfg in (configs or {}).items() for f in dataclasses.fields(cfg)}
    for key in sorted(keys):
        value = keys[key]
        if value is None:  # an unset level_subset: every level
            value = "all"
        elif isinstance(value, tuple):
            value = "+".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    (Path(outdir) / "resolved.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest_geometry(manifest):
    """The ModelConfig fields a dataset fixes, by field name."""
    return {
        "n_rois": manifest.n_rois,
        "series_len": manifest.series_len,
        "classes": len(manifest.classes),
    }


def _check_fits(model, args, names=("n_rois", "series_len", "classes")):
    """Refuse a checkpoint whose `names` differ from the manifest's before any scan is read."""
    geometry = _manifest_geometry(load_manifest(args.manifest))
    mismatches = [f"{name}: checkpoint {getattr(model.config, name)} vs manifest {geometry[name]}"
                  for name in names if getattr(model.config, name) != geometry[name]]
    if mismatches:
        raise ConfigError(f"checkpoint {args.checkpoint} does not fit manifest {args.manifest}: "
                          + "; ".join(mismatches))


def _fill_model_defaults(typed, manifest):
    """Model geometry follows the dataset; explicit conflicting keys fail fast."""
    for name, value in _manifest_geometry(manifest).items():
        key = f"model.{name}"
        if key in typed and typed[key] != value:
            raise ConfigError(
                f"{key}={typed[key]} conflicts with the manifest value {value}"
            )
        typed[key] = value
    return typed


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    typed = resolve_config(args)
    spec = _dataclass_from_keys(SyntheticSpec, "synth.", typed)
    outdir = _out_dir(args)
    samples, truth = generate_synthetic(spec)
    manifest = DatasetManifest(
        classes=spec.class_names(), n_rois=spec.n_rois, series_len=spec.series_len
    )
    manifest_path = write_dataset(samples, truth, manifest, outdir, force=args.force)
    write_snapshot(outdir, args, {"synth": spec})
    print(f"wrote {len(samples)} scans to {manifest_path}")
    for name in manifest.classes:
        print(f"  {name}: {spec.per_class}")
    return 0


def _cv_setup(args):
    """Set-up shared by train and ablate: the dataset, the model and train
    configs, and the output directory with its snapshot."""
    typed = resolve_config(args)
    samples = load_dataset(args.manifest)
    typed = _fill_model_defaults(typed, load_manifest(args.manifest))
    model_cfg = _dataclass_from_keys(ModelConfig, "model.", typed)
    train_cfg = _dataclass_from_keys(TrainConfig, "train.", typed)
    outdir = _out_dir(args)
    write_snapshot(outdir, args, {"model": model_cfg, "train": train_cfg})
    return samples, model_cfg, train_cfg, outdir


def cmd_train(args):
    samples, model_cfg, train_cfg, outdir = _cv_setup(args)
    result = run_cv(samples, model_cfg, train_cfg)
    for fold, model in enumerate(result.models):
        model.save(outdir / f"fold{fold}.ckpt")
    (outdir / "fold_report.txt").write_text(result.report.to_text(), encoding="utf-8")
    (outdir / "fold_report.json").write_text(result.report.to_json(), encoding="utf-8")
    print(result.report.to_text(), end="")
    return 0


def cmd_eval(args):
    outdir = _out_dir(args)
    model = MLCGCN.load(args.checkpoint)
    _check_fits(model, args)
    samples = load_dataset(args.manifest)
    probs, truth = evaluate_model(model, samples)
    report = compute_metrics(probs, truth)
    write_snapshot(outdir, args)
    lines = [f"{name} = {cell}" for name, cell in zip(METRIC_LABELS, report.percent_cells())]
    text = "\n".join(lines) + "\n"
    (outdir / "metrics.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _parse_variant(spec):
    """One --variant NAME:KEY=VALUE,... as (name, typed deltas). The name is a
    bare CSV cell of ablation.txt, so it must be non-empty and hold no ',', '"'
    or line break."""
    name, _, rest = spec.partition(":")
    if not name or any(c in name for c in ',"\r\n'):
        raise ConfigError(f"--variant {spec!r}: the name must be non-empty and hold no ',', "
                          "'\"' or line break")
    pairs = [pair.partition("=") for pair in rest.split(",")] if rest else []
    return name, {key: _parse_key(key, value, "ablate") for key, _, value in pairs}


def cmd_ablate(args):
    variants = [_parse_variant(spec) for spec in args.variant] if args.variant else TABLE_VARIANTS
    samples, model_cfg, train_cfg, outdir = _cv_setup(args)
    rows = run_ablation(samples, model_cfg, train_cfg, variants)
    table = ablation_table(rows)
    (outdir / "ablation.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 1 if any(row.failed for row in rows) else 0


GRADCHECK_LIMITS = {"n_rois": 8, "series_len": 32, "levels": 2}


def cmd_gradcheck(args):
    cfg = gradcheck_config(n_rois=args.n_rois, series_len=args.series_len, levels=args.levels)
    for field_name, limit in GRADCHECK_LIMITS.items():
        if getattr(cfg, field_name) > limit:
            raise ConfigError(
                f"gradcheck enforces a tiny config: {field_name} <= {limit}, "
                f"got {getattr(cfg, field_name)}"
            )
    outdir = _out_dir(args)
    t0 = time.perf_counter()
    zero_rows = {}
    results = run_gradcheck(cfg, args.tolerance, seed=args.seed, zero_rows=zero_rows)
    elapsed = time.perf_counter() - t0
    write_snapshot(outdir, args)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, err, ok in results:
        verdict = "PASS" if ok else f"FAIL  ({zero_rows[name]} zero-norm rows met)"
        lines.append(f"{name.ljust(width)}  {err:.3e}  {verdict}")
    table = "\n".join(lines) + "\n"
    (outdir / "gradcheck.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    worst_name, worst_err, _ = max(results, key=lambda r: r[1])
    print(f"worst block: {worst_name} ({worst_err:.3e}); elapsed {elapsed:.1f}s")
    if all(ok for _, _, ok in results):
        return 0
    print(f"gradcheck FAILED: {worst_name} error {worst_err:.3e} >= {args.tolerance}",
          file=sys.stderr)
    return 1


def level_pick(selector):
    """--level as (pick, level): `pick` maps a slice's LevelOutputs to the stacks
    it selects; `level` is the depth the model must reach ("all", "pearson": 0)."""
    if selector in ("all", "pearson"):
        return (lambda out: out.adjacencies if selector == "all" else [out.pearson]), 0
    level = int(selector) if selector.isdecimal() else 0
    if level < 1:
        raise ConfigError(f"level selector must be a 1-based index, 'all' or 'pearson', got {selector!r}")
    return (lambda out: [out.adjacencies[level - 1]]), level


def cmd_export(args):
    pick, level = level_pick(args.level)
    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    if not 0 < args.fraction <= 1:
        raise ConfigError(f"--fraction must be in (0, 1], got {args.fraction}")
    outdir = _out_dir(args)
    model = MLCGCN.load(args.checkpoint)
    if level > model.config.levels:
        raise ConfigError(f"level selector {level} outside [1, {model.config.levels}]")
    _check_fits(model, args, ("n_rois", "series_len"))  # export never reads the class count
    samples = load_dataset(args.manifest)
    mean = graph_stats(model, samples, pick).mean()
    write_snapshot(outdir, args)
    for name, fmt in (("mean_graph.csv", "matrix"), ("top_edges.csv", "edge-list"),
                      ("node_importance.csv", "node-importance")):
        export_connectome(mean, outdir / name, fmt=fmt, fraction=args.fraction, top=args.top)
        print(outdir / name)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlcgcn",
        description="Multi-level connectome GCN: synthesize data, train, "
        "evaluate, ablate, gradient-check, and export connectomes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, configurable=False):
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUTPUT_ENV} or ./out)")
        if configurable:
            p.add_argument("--config", default=None, help="flat key = value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key (repeatable)")

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    common(p, configurable=True)
    p.add_argument("--force", action="store_true", help="overwrite a non-empty directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="cross-validated training from a manifest")
    common(p, configurable=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the module-ablation table")
    common(p, configurable=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", action="append", metavar="NAME:KEY=VALUE,...",
                   help="custom variant rows (default: the six module rows)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every parameter block")
    common(p)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-rois", type=int, default=6, dest="n_rois")
    p.add_argument("--series-len", type=int, default=20, dest="series_len")
    p.add_argument("--levels", type=int, default=2)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export", help="write a model's mean graph, top edges and node importance")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--level", default="all",
                   help="level selector: a 1-based index, 'all', or 'pearson'")
    p.add_argument("--fraction", type=float, default=0.01)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ContractError, DataError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ForwardError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
