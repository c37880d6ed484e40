"""Command-line front end: single runs, parameter sweeps, and the defense matrix.

Config files are flat ``key = value`` text mirroring ExperimentConfig field
names; ``--set key=value`` flags override file values.  ``sweep`` varies any
one field.  Outputs are one metrics CSV per trial plus a summary CSV, with
stable columns.  Each command runs the set-up checks of all of its configs
before the first run, so a rejected config exits with status 2 having run and
written nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from flrlab.harness import (
    CHOICES,
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    config_hash,
    format_float,
    run_experiment,
    set_up,
    write_summary_csv,
    write_trial_csv,
)

def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _load_config(args) -> ExperimentConfig:
    mapping = parse_config_file(args.config) if args.config else {}
    config = config_from_mapping(mapping)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if overrides:
        config = config_from_mapping(overrides, base=config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _run_and_write(config: ExperimentConfig, out_dir: Path, tag: str = "") -> float:
    result = run_experiment(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = f"{tag}_" if tag else ""
    for i, trial in enumerate(result.trial_results):
        write_trial_csv(trial.records, out_dir / f"{prefix}trial_{i:02d}.csv")
    write_summary_csv(result, out_dir / f"{prefix}summary.csv")
    return result.mean_final_test_error


def cmd_run(args) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    error = _run_and_write(config, out_dir)
    print(f"run {config_hash(config)}: mean final test error {format_float(error)} -> {out_dir}")
    return 0


def _run_matrix(rows, out_dir: Path, table: str, key_header: str) -> list[float]:
    """Run :func:`set_up` on every (tag, key, config) row, so that a rejected row stops
    the matrix before any run, then run each row in order.

    Each run writes its CSVs under the ``tag`` prefix; ``table`` gets one
    ``key,mean_final_test_error`` line per row.  Returns the errors in row order.
    """
    for _, _, config in rows:
        set_up(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines, errors = [f"{key_header},mean_final_test_error"], []
    for tag, key, config in rows:
        error = _run_and_write(config, out_dir, tag)
        print(f"{tag}: mean final test error {format_float(error)}")
        lines.append(f"{key},{format_float(error)}")
        errors.append(error)
    (out_dir / table).write_text("\n".join(lines) + "\n")
    return errors


def _split(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def cmd_sweep(args) -> int:
    base = _load_config(args)
    values = _split(args.values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for value in values:
        if os.sep in value or (os.altsep and os.altsep in value):
            raise ConfigError(f"sweep value {value!r} names an output file and must not hold a path separator")
        rows.append((f"{args.param}_{value}", value, config_from_mapping({args.param: value}, base=base)))
    errors = _run_matrix(rows, Path(args.out), "sweep.csv", args.param)
    trend = "non-decreasing" if all(b >= a - 1e-12 for a, b in zip(errors, errors[1:])) else "not monotone"
    print(f"sweep over {args.param}: error trend {trend}")
    return 0


def cmd_defend(args) -> int:
    base = _load_config(args)
    assumed_rules = _split(args.assumed)
    rows = []
    for rule in _split(args.actual):
        for defense in _split(args.defenses):
            row_base = replace(base, rule=rule, defense=defense)
            rows.append((f"{rule}_{defense}_noattack", f"{rule},{defense},none", replace(row_base, attack="none")))
            for assumed in assumed_rules:
                attacked = replace(row_base, attack="craft", attack_rule=assumed, knowledge=args.knowledge)
                rows.append((f"{rule}_{defense}_{assumed}", f"{rule},{defense},{assumed}", attacked))
    _run_matrix(rows, Path(args.out), "defend.csv", "actual_rule,defense,attacker_assumed_rule")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field")
        p.add_argument("--seed", type=int, required=seed_required, help="master seed")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run a single experiment")
    common(p_run, seed_required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over one config parameter")
    common(p_sweep, seed_required=False)
    p_sweep.add_argument("--param", required=True, metavar="FIELD", help="any config field")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_defend = sub.add_parser("defend", help="attacker-assumed rule x actual rule+defense matrix")
    common(p_defend, seed_required=False)
    p_defend.add_argument("--assumed", default="krum,trimmed_mean", help="attacker's assumed rules")
    p_defend.add_argument("--actual", default="krum,trimmed_mean,median", help="actual aggregation rules")
    p_defend.add_argument("--defenses", default="none,err,lfr,union", help="defense filters to row")
    p_defend.add_argument("--knowledge", default="partial", choices=CHOICES["knowledge"])
    p_defend.set_defaults(func=cmd_defend)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
