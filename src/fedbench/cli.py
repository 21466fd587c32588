"""Command-line front end: run, sweep, partition, compare, report.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 all clients diverged, 1 anything else (an ``OSError`` is ``io_error``).  A
machine-readable error record is printed to stderr on failure.  Everything
else lives in the config file; its dataclasses check it, naming the bad field,
and ``config_echo.yaml`` holds every field of the config a command ran (of
the strategy, a layer or the data, those its kind reads).
Config files and ``--override`` values are UTF-8 YAML read with YAML 1.2's
exponent floats (``1e-3``).
``main`` parses with one parser, built on first use and kept for the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import yaml

from . import metrics as metrics_mod
from .data_synth import PartitionSpec, write_partition
from .errors import (
    AllClientsDiverged,
    ConfigError,
    FedbenchError,
    InfeasibleSizes,
    MalformedRow,
    SchemaMismatch,
    stated,
)
from .nn import LayerSpec, ModelSpec
from .orchestrator import ExperimentConfig, load_clients, run_experiment, sweep_local_epochs
from .strategies import StrategyConfig

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

_EPILOG = """exit codes:
  0  success
  2  configuration error (bad config file, override, or flag combination)
  3  data error (malformed CSV, schema mismatch, infeasible partition)
  4  every client diverged; partial results were flushed
  1  any other failure
"""


# ---------------------------------------------------------------------------
# config parsing

def _build(cls, section, path: str, extras: tuple[str, ...] = (), **parse):
    """``cls(**section)`` for a config section, a mapping whose keys are all
    fields of ``cls`` or ``extras``; a field without a default must be present,
    and ``parse[name]`` converts a field's raw value first.  ``path`` "" is the
    top level."""
    keys = [f.name for f in fields(cls)] + list(extras)
    if not isinstance(section, dict):
        raise ConfigError(path or "config", f"must be a mapping, got {section!r}")
    unknown = [k for k in section if k not in keys]
    if unknown:
        raise ConfigError(path or "config", f"unknown keys {unknown}; expected some of {keys}")
    for f in fields(cls):
        if f.name not in section and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}" if path else f.name, "required field missing")
    return cls(**{k: parse[k](v) if k in parse else v
                  for k, v in section.items() if k not in extras})


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, reading exponent floats as YAML 1.2 does:
    ``1e-3`` is 0.001, where YAML 1.1 wants a dot and a signed exponent
    (``1.0e-3``) and reads a string."""


class _Dumper(yaml.SafeDumper):
    """PyYAML's safe dumper, quoting a string that ``_Loader`` reads as a
    float, so that an echoed config reads back as the one that ran."""


for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Apply dotted ``key=value`` overrides; values parse as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override", f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError("override", f"invalid YAML in {item!r}: {exc}")
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return config


def _parse_layers(raw) -> list[LayerSpec]:
    if not isinstance(raw, list):
        raise ConfigError("model.layers", "must be a list of layer mappings")
    return [_build(LayerSpec, layer, f"model.layers[{i}]") for i, layer in enumerate(raw)]


def _parse_data(section):
    """A partition manifest's path, or an inline ``PartitionSpec``."""
    return section if isinstance(section, str) else _build(PartitionSpec, section, "data")


def _read_mapping(path, field: str) -> dict:
    """Load a YAML file whose top level must be a mapping."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(field, f"file not found: {path}")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_Loader)
    except UnicodeDecodeError as exc:
        raise ConfigError(field, f"{path} is not UTF-8 text: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(field, f"invalid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(field, "top level must be a mapping")
    return raw


def parse_and_validate_config(path, overrides: list[str] | None = None,
                              out_dir=None) -> tuple[ExperimentConfig, dict]:
    """Load, override, validate; returns (config, echo).  ``out_dir``, when
    given, replaces the config's; the echo is every field of the config that
    its section's kind reads, defaults included, and ``total_budget``, and
    reads back as an equal config."""
    raw = apply_overrides(_read_mapping(path, "config"), overrides or [])
    if out_dir is not None:
        raw["out_dir"] = str(out_dir)
    cfg = _build(ExperimentConfig, raw, "", ("total_budget",),
                 strategy=lambda s: _build(StrategyConfig, s, "strategy"),
                 model=lambda m: _build(ModelSpec, m, "model", layers=_parse_layers),
                 data=_parse_data)
    if "total_budget" in raw and raw["total_budget"] != cfg.total_budget:
        raise ConfigError("total_budget", f"declared {raw['total_budget']} != "
                          f"local_epochs*rounds = {cfg.total_budget}")
    echo = asdict(cfg, dict_factory=stated)
    return cfg, {**echo, "total_budget": cfg.total_budget}


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    # --seed is an override of seeds, so the config's checks and the echo see it
    seed_override = [] if args.seed is None else [f"seeds={args.seed}"]
    cfg, echo = parse_and_validate_config(args.config, args.override + seed_override, args.out)
    out_dir = Path(cfg.out_dir)
    _atomic_write(out_dir / "config_echo.yaml", yaml.dump(echo, Dumper=_Dumper, sort_keys=False))
    datasets = load_clients(cfg)  # once for every seed
    per_seed = []
    for seed in cfg.seeds:
        result = run_experiment(cfg, seed, out_dir=out_dir / f"seed_{seed}", datasets=datasets)
        per_seed.append(result.mean_test_metric)
        print(f"seed {seed}: selected round {result.selected_round}, "
              f"mean test {cfg.selection_metric} = {result.mean_test_metric:.4f}")
    metrics_mod.write_summary_csv(out_dir / "summary.csv", cfg.strategy.algorithm,
                                  cfg.selection_metric, per_seed)
    mean, std = metrics_mod.mean_std(per_seed)
    print(f"{cfg.strategy.algorithm}: {mean:.4f} +/- {std:.4f} over {len(per_seed)} seed(s)")
    return EXIT_OK


def _parse_grid(grid: str) -> list[tuple[int, int]]:
    splits = []
    for part in grid.split(","):
        try:
            e, t = part.lower().split("x")
            splits.append((int(e), int(t)))
        except ValueError:
            raise ConfigError("grid", f"expected ExT pairs like 1x60,5x12, got {part!r}")
    if len(set(splits)) != len(splits):  # a split run twice would overwrite its own outputs
        raise ConfigError("grid", f"must not repeat a split, got {grid!r}")
    return splits


def cmd_sweep(args) -> int:
    cfg, echo = parse_and_validate_config(args.config, args.override, args.out)
    splits = _parse_grid(args.grid)
    cfg.check_splits(splits)  # before anything is written
    out_dir = Path(cfg.out_dir)
    _atomic_write(out_dir / "config_echo.yaml", yaml.dump(echo, Dumper=_Dumper, sort_keys=False))
    rows = sweep_local_epochs(cfg, splits, out_dir=out_dir)
    lines = ["local_epochs,rounds,seed,selected_round,mean_val_metric,mean_test_metric"]
    lines += [f"{r['local_epochs']},{r['rounds']},{r['seed']},{r['selected_round']},"
              f"{r['mean_val_metric']:.6f},{r['mean_test_metric']:.6f}" for r in rows]
    _atomic_write(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_partition(args) -> int:
    raw = _read_mapping(args.spec, "spec")
    spec = _parse_data(raw.get("data", raw))
    if not isinstance(spec, PartitionSpec):
        raise ConfigError("data", "partition needs an inline data spec, not a manifest")
    manifest = write_partition(spec, args.out)
    print(f"wrote {manifest}")
    return EXIT_OK


def _finite(record: dict, key: str, path: Path, default=None) -> float:
    value = record.get(key, default) if isinstance(record, dict) else None
    # a NaN metric would sort above every real one in the rank tests, and a
    # string or null elapsed time cannot be summed
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)):
        raise ConfigError("results", f"{path} has no finite {key}: {value!r}")
    return value


def _collect_seed_metrics(result_dir: Path) -> tuple[str, list[float], list[tuple[Path, dict]]]:
    """(algorithm, per-seed mean test metrics, (path, record) of each result.json)."""
    seeds = sorted(result_dir.glob("seed_*/result.json"))
    if not seeds:
        raise ConfigError("results", f"no seed_*/result.json under {result_dir}")
    values, records = [], []
    for path in seeds:
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("results", f"{path} is not valid JSON: {exc}")
        values.append(_finite(record, "mean_test_metric", path))
        records.append((path, record))
    names = {str(record.get("algorithm") or result_dir.name) for _, record in records}
    if len(names) > 1:  # one tree's seeds are one algorithm's replicates
        raise ConfigError("results", f"{result_dir} mixes the algorithms {sorted(names)}")
    return names.pop(), values, records


def cmd_compare(args) -> int:
    collected: dict[str, list[float]] = {}
    for d in args.results:
        name, values, _ = _collect_seed_metrics(Path(d))
        key = name if name not in collected else f"{name}:{d}"
        collected[key] = values
    method = "exact" if args.exact else ("normal" if args.approx else "auto")
    alternative = "one-sided" if args.one_sided else "two-sided"
    matrix = metrics_mod.significance_matrix(collected, alternative=alternative, method=method)
    pairs = sorted(matrix.items())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        metrics_mod.write_csv(out / "significance.csv", ["alg_a", "alg_b", "u", "p", "label"],
                              ([a, b, f"{res.u_statistic:.6f}", f"{res.p_value:.6g}", label]
                               for (a, b), (res, label) in pairs))
    for (a, b), (res, label) in pairs:
        print(f"{a} vs {b}: U={res.u_statistic:.1f} p={res.p_value:.4g} {label}")
    return EXIT_OK


def cmd_report(args) -> int:
    result_dir = Path(args.results)
    name, values, records = _collect_seed_metrics(result_dir)
    elapsed = sum((_finite(record, "elapsed_seconds", path, default=0.0)
                   for path, record in records), 0.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_mod.write_summary_csv(out / "summary.csv", name, "selection_metric", values)
    metrics_mod.write_csv(out / "timing.csv", ["algorithm", "elapsed_seconds"],
                          [[name, f"{elapsed:.3f}"]])
    for path in sorted(result_dir.glob("seed_*/distances.csv")):
        shutil.copyfile(path, out / f"distances_{path.parent.name}.csv")
    print(f"report written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbench",
        description="Federated-learning simulation benchmark",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment per seed")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, nargs="*", default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--override", action="append", default=[],
                       help="dotted key=value config override (repeatable)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="local-epoch schedule sweep under a fixed budget")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True, help="ExT pairs, e.g. 1x60,5x12,10x6")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--override", action="append", default=[])
    p_sweep.set_defaults(func=cmd_sweep)

    p_part = sub.add_parser("partition", help="generate a synthetic partition + manifest")
    p_part.add_argument("--spec", required=True)
    p_part.add_argument("--out", required=True)
    p_part.set_defaults(func=cmd_partition)

    p_cmp = sub.add_parser("compare", help="significance matrix across result dirs")
    p_cmp.add_argument("--results", nargs="+", required=True)
    p_cmp.add_argument("--out", default=None)
    method = p_cmp.add_mutually_exclusive_group()
    method.add_argument("--exact", action="store_true")
    method.add_argument("--approx", action="store_true")
    p_cmp.add_argument("--one-sided", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="tables + plot-data CSVs from a result dir")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


_parser = functools.cache(build_parser)  # main's one parser: parse_args leaves it as it was


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error("config_error", exc)
        return EXIT_CONFIG
    except (MalformedRow, SchemaMismatch, InfeasibleSizes) as exc:
        _emit_error("data_error", exc)
        return EXIT_DATA
    except AllClientsDiverged as exc:
        _emit_error("all_clients_diverged", exc)
        return EXIT_DIVERGED
    except FedbenchError as exc:
        _emit_error("error", exc)
        return EXIT_OTHER
    except OSError as exc:  # an unwritable --out, an unreadable file
        _emit_error("io_error", exc)
        return EXIT_OTHER


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())  # pragma: no cover: run as python -m, a child process line tracing misses
