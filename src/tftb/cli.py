"""Command-line front end.

Commands:

    tftb train   --task classify-synth --mode tftb --alpha 0.3 --out runs/
    tftb compare runs/a/manifest.json runs/b/manifest.json --out cmp/
    tftb sweep   --task classify-synth --alphas 0.3,0.4 --seeds 1,2,3 --out runs/

Configuration can come from a flat key=value text file (``--config``); CLI
flags override file values, which override the built-in defaults.  Exit
codes: 0 success, 2 configuration error (a malformed or incomparable
manifest given to ``compare`` included), 3 training error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, ManifestError, TftbError, TrainingAbort
from .experiments import TASKS, ExperimentSpec, run_experiment, run_sweep
from .importance import AlphaSchedule
from .manifest import RunManifest
from .metrics import compare_runs
from .trainer import MODES, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_IO = 4


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# config-file key -> (section, field, converter); sections are the TrainConfig,
# the AlphaSchedule nested inside it, and the ExperimentSpec
CONFIG_KEYS = {
    "task": ("spec", "task", str),
    "mode": ("train", "mode", str),
    "alpha": ("train", "alpha", float),
    "warmup_epochs": ("train", "warmup_epochs", int),
    "batch_size": ("train", "batch_size", int),
    "lr": ("train", "lr", float),
    "budget_seconds": ("train", "budget_seconds", float),
    "max_epochs": ("train", "max_epochs", int),
    "rerank_period": ("train", "rerank_period", int),
    "lambda_var": ("train", "lambda_var", float),
    "score_window": ("train", "score_window", int),
    "stratified": ("train", "stratified", _parse_bool),
    "early_stop_patience": ("train", "early_stop_patience", int),
    "seed": ("train", "seed", int),
    "refresh_excluded_period": ("train", "refresh_excluded_period", int),
    "adaptive_alpha": ("schedule", "enabled", _parse_bool),
    "alpha_window": ("schedule", "window", int),
    "alpha_eps_slow": ("schedule", "eps_slow", float),
    "alpha_eps_fast": ("schedule", "eps_fast", float),
    "alpha_delta": ("schedule", "delta_alpha", float),
    "alpha_min": ("schedule", "alpha_min", float),
    "alpha_max": ("schedule", "alpha_max", float),
    "n_per_class": ("spec", "n_per_class", int),
    "num_classes": ("spec", "num_classes", int),
    "easy_fraction": ("spec", "easy_fraction", float),
    "feature_dim": ("spec", "feature_dim", int),
    "n_test_per_class": ("spec", "n_test_per_class", int),
    "hidden": ("spec", "hidden", _parse_int_tuple),
    "data_dir": ("spec", "data_dir", str),
    "n_images": ("spec", "n_images", int),
    "image_size": ("spec", "image_size", int),
    "max_objects": ("spec", "max_objects", int),
    "sigma": ("spec", "sigma", float),
    "conv_channels": ("spec", "conv_channels", _parse_int_tuple),
    "n_test_images": ("spec", "n_test_images", int),
    "val_fraction": ("spec", "val_fraction", float),
    "ledger_csv": ("spec", "ledger_csv", _parse_bool),
}


def parse_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; allowed keys: "
                + ", ".join(sorted(CONFIG_KEYS))
            )
        values[key] = value
    return values


def _build_spec(args) -> ExperimentSpec:
    sections = {"train": {}, "schedule": {}, "spec": {}}
    if getattr(args, "config", None):
        for key, text in parse_config_file(args.config).items():
            section, attr, convert = CONFIG_KEYS[key]
            try:
                sections[section][attr] = convert(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}={text!r}: {exc}") from exc
    for key, (section, attr, convert) in CONFIG_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            sections[section][attr] = convert(flag) if isinstance(flag, str) else flag

    schedule = AlphaSchedule(**sections["schedule"])
    train = TrainConfig(adaptive_alpha=schedule, **sections["train"])
    spec = ExperimentSpec(config=train, **sections["spec"])
    spec.validate()
    return spec


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--task", choices=TASKS)
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--alpha", type=float, help="sampling ratio: fraction excluded from X_s")
    parser.add_argument("--budget-seconds", dest="budget_seconds", type=float,
                        help="wall-clock training budget T")
    parser.add_argument("--warmup-epochs", dest="warmup_epochs", type=int,
                        help="full-dataset epochs m before selection")
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--rerank-period", dest="rerank_period", type=int,
                        help="re-rank and re-select every R epoch-equivalents")
    parser.add_argument("--max-epochs", dest="max_epochs", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--lambda-var", dest="lambda_var", type=float)
    parser.add_argument("--score-window", dest="score_window", type=int)
    parser.add_argument("--patience", dest="early_stop_patience", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--stratified", dest="stratified", action="store_true", default=None)
    parser.add_argument("--no-stratified", dest="stratified", action="store_false", default=None)
    parser.add_argument("--refresh-excluded", dest="refresh_excluded_period", type=int)
    parser.add_argument("--data-dir", dest="data_dir")
    parser.add_argument("--n-per-class", dest="n_per_class", type=int)
    parser.add_argument("--num-classes", dest="num_classes", type=int)
    parser.add_argument("--easy-fraction", dest="easy_fraction", type=float)
    parser.add_argument("--ledger-csv", dest="ledger_csv", action="store_true", default=None)
    parser.add_argument("--out", default="runs", help="output directory")


def _cmd_train(args) -> int:
    spec = _build_spec(args)
    _, manifest, run_dir = run_experiment(spec, out_dir=args.out)
    keys = [k for k in ("accuracy", "mae", "mse", "rmse") if k in manifest.final_metrics]
    summary = "  ".join(f"{k}={manifest.final_metrics[k]:.4f}" for k in keys)
    print(f"{spec.run_name()}: stop={manifest.stop_reason}  {summary}")
    print(f"wrote {run_dir}/manifest.json")
    return EXIT_OK


def _cmd_compare(args) -> int:
    if len(args.manifests) < 2:
        raise ConfigError("compare needs at least two manifest paths")
    manifests = [RunManifest.load(p) for p in args.manifests]
    labels = [Path(p).parent.name or f"run{i}" for i, p in enumerate(args.manifests)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    texts = []
    for i in range(1, len(manifests)):
        cmp = compare_runs(manifests[0], manifests[i], label_a=labels[0], label_b=labels[i])
        (out / f"comparison_{i}.csv").write_text(cmp.to_csv_text())
        texts.append(cmp.to_table_text())
    (out / "comparison.txt").write_text("\n".join(texts))
    print("\n".join(texts), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    try:
        alphas = [float(part) for part in (args.alphas or "").split(",") if part.strip()]
        seeds = _parse_int_tuple(args.seeds) if args.seeds else [spec.config.seed]
    except ValueError as exc:
        raise ConfigError(f"--alphas and --seeds take comma-separated numbers: {exc}") from exc
    _, summary = run_sweep(spec, alphas, seeds, out_dir=args.out)
    for row in summary:
        print(
            f"alpha={row['alpha']:g}: {row['metric']} = "
            f"{row['mean']:.4f} +/- {row['std']:.4f}  (n={row['n_runs']})"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tftb",
        description="Budgeted training with loss-ranked dynamic subset selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_train_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_compare = sub.add_parser("compare", help="compare run manifests against the first")
    p_compare.add_argument("manifests", nargs="+", help="manifest.json paths (>= 2)")
    p_compare.add_argument("--out", default="comparisons")
    p_compare.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run a grid of (alpha, seed) experiments")
    _add_train_flags(p_sweep)
    p_sweep.add_argument("--alphas", help="comma-separated alpha values")
    p_sweep.add_argument("--seeds", help="comma-separated seeds")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ManifestError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        if exc.manifest is not None and getattr(args, "out", None):
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            exc.manifest.save(out / "aborted_manifest.json")
            print(f"diagnostic manifest written to {out}/aborted_manifest.json", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TftbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
