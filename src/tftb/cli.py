"""Command-line front end.

Commands:

    tftb train   --task classify-synth --mode tftb --alpha 0.3 --out runs/
    tftb compare runs/a/manifest.json runs/b/manifest.json --out cmp/
    tftb sweep   --task classify-synth --mode tftb --alphas 0.3,0.4 --seeds 1,2,3 --out runs/

Settings have one owner, the fields of ``ExperimentSpec``, ``TrainConfig``
and its ``AlphaSchedule``: ``CONFIG_KEYS`` derives from each a key of the
flat key=value ``--config`` file and a flag, ``--key-with-dashes`` but for
``--patience`` and ``--refresh-excluded``, and converts both by the field's
type, so a malformed value is a configuration error naming its key.  Flags
override file values, which override the fields' defaults.  Exit codes: 0
success, 2 configuration error (a malformed or incomparable manifest given
to ``compare`` included), 3 training error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
import typing
from pathlib import Path

from .errors import ConfigError, ManifestError, TftbError, TrainingAbort
from .experiments import TASKS, ExperimentSpec, run_experiment, run_sweep, sweep_summary_line
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
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# the hand-kept parts of the table: the alpha schedule's config-file keys,
# and the fields that are no key (the task sets the loss; two hold nests)
_SCHEDULE_KEYS = dict(enabled="adaptive_alpha", window="alpha_window", eps_slow="alpha_eps_slow",
                      eps_fast="alpha_eps_fast", delta_alpha="alpha_delta",
                      alpha_min="alpha_min", alpha_max="alpha_max")
_NOT_KEYS = {"loss_kind", "config", "adaptive_alpha"}
_CONVERTERS = {bool: _parse_bool, tuple: _parse_int_tuple}


def _converter(hint):
    """The text-to-value converter of a field's type, ``None`` ignored."""
    if type(None) in typing.get_args(hint):
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    kind = typing.get_origin(hint) or hint
    return _CONVERTERS.get(kind, kind)


# config-file key -> (section, field, converter), one per settable field
CONFIG_KEYS = {
    _SCHEDULE_KEYS[name] if cls is AlphaSchedule else name: (section, name, _converter(hint))
    for section, cls in (("spec", ExperimentSpec), ("train", TrainConfig),
                         ("schedule", AlphaSchedule))
    for name, hint in typing.get_type_hints(cls).items() if name not in _NOT_KEYS
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
    """The spec of the config file's values, overridden by the flags given;
    both pass through CONFIG_KEYS' converters (a bool flag's value is a bool)."""
    given = list(parse_config_file(args.config).items()) if args.config else []
    given += [(key, getattr(args, key)) for key in CONFIG_KEYS if getattr(args, key) is not None]
    sections = {"train": {}, "schedule": {}, "spec": {}}
    for key, value in given:
        section, attr, convert = CONFIG_KEYS[key]
        try:
            sections[section][attr] = convert(value) if isinstance(value, str) else value
        except ValueError as exc:
            raise ConfigError(f"config key {key}={value!r}: {exc}") from exc
    schedule = AlphaSchedule(**sections["schedule"])
    train = TrainConfig(adaptive_alpha=schedule, **sections["train"])
    return ExperimentSpec(config=train, **sections["spec"])


# the flags not spelt --key-with-dashes, and the choices and help of some
_FLAG_NAMES = {"early_stop_patience": "--patience", "refresh_excluded_period": "--refresh-excluded"}
_FLAG_ARGS = {
    "task": dict(choices=TASKS),
    "mode": dict(choices=MODES),
    "alpha": dict(help="sampling ratio: fraction excluded from X_s"),
    "budget_seconds": dict(help="wall-clock training budget T"),
    "warmup_epochs": dict(help="full-dataset epochs m before selection"),
    "rerank_period": dict(help="re-rank and re-select every R epoch-equivalents"),
}


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    """``--config``, ``--out`` and a flag per config key, which takes the
    key's text; a bool key's flag has a ``--no-`` form instead."""
    parser.add_argument("--config", help="flat key=value config file")
    for key, (_, _, convert) in CONFIG_KEYS.items():
        action = argparse.BooleanOptionalAction if convert is _parse_bool else None
        parser.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")), dest=key,
                            action=action, **_FLAG_ARGS.get(key, {}))
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
        print(sweep_summary_line(row))
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
