"""Command-line front-end: train, evaluate, pareto, ratio-toy."""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import metrics, oracles, penalties, training
from .data import ColumnSchema, csv_reader, load_csv, open_input, rng_streams, split_train_val
from .errors import ConfigError, FairpenError, IngestionError
from .nn import Mlp, mlp
from .training import TrainConfig


def load_schema(path) -> list[ColumnSchema]:
    with open_input(path) as f:
        try:
            entries = json.load(f)
        except json.JSONDecodeError as exc:
            raise IngestionError(f"{path}: not valid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise IngestionError(f"{path}: schema must be a JSON list of column objects")
    schema = []
    for i, e in enumerate(entries):
        cats = e.get("categories")
        try:
            schema.append(ColumnSchema(e["name"], e["role"], e["kind"],
                                       tuple(cats) if isinstance(cats, list) else cats))
        except KeyError as exc:
            raise IngestionError(f"{path}: schema entry {i} has no {exc.args[0]!r}") from None
        except IngestionError as exc:
            raise IngestionError(f"{path}: schema entry {i}: {exc}") from None
    return schema


# Each [train] key with the TrainConfig field it sets and that field's type.
TRAIN_KEYS = {
    "t": ("T", int), "learning_rate": ("learning_rate", float), "t_prime": ("T_prime", int),
    "l": ("L", int), "n_b": ("n_b", int), "eval_interval": ("eval_interval", int),
    "seed": ("seed", int), "sampler": ("sampler", str), "scaling": ("scaling", str),
}
# Every key cmd_train reads, by config section; any other key is an error.
CONFIG_KEYS = {"data": ("csv", "schema"), "train": (*TRAIN_KEYS, "lambda"), "output": ("dir", "run_id")}


def _read_config(path) -> dict:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        items = {(section, key): value for section in parser.sections()
                 for key, value in parser.items(section)}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section, key in items:
        if key not in CONFIG_KEYS.get(section, ()):
            raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
    return {f"{section}.{key}": value for (section, key), value in items.items()}


def _parse(value, cast, where: str):
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(f"{where}: {value!r} is not a valid {cast.__name__}") from None


def _train_config(cfg: dict, lam: float, overrides: argparse.Namespace) -> TrainConfig:
    fields = {"T": 1000}  # TrainConfig's own defaults hold for every other field
    for key, (name, cast) in TRAIN_KEYS.items():
        if f"train.{key}" in cfg:
            fields[name] = _parse(cfg[f"train.{key}"], cast, f"{overrides.config}: [train] {key}")
    for name in ("seed", "sampler", "scaling"):  # command-line flags win over the config
        if getattr(overrides, name) is not None:
            fields[name] = getattr(overrides, name)
    return TrainConfig(lam=lam, **fields)


def default_networks(dataset, criterion: str, rng: np.random.Generator):
    """Architectures used throughout: a continuous outcome gets width-16
    blocks and an identity-output scorer, any other outcome width-64 blocks
    and a sigmoid output; the scorer has 3 hidden blocks, discriminators 2."""
    continuous = dataset.outcome_column.kind == "continuous"
    width = 16 if continuous else 64
    out_act = "identity" if continuous else "sigmoid"
    h = mlp(dataset.p, [width] * 3, rng=rng, batch_norm=True, output_activation=out_act)
    d_in = 1 + dataset.l if criterion == "gsp" else 1 + dataset.l + 1
    d_net = mlp(d_in, [width] * 2, rng=rng, batch_norm=True)
    return h, d_net


def _write_csv(path, rows) -> None:
    """Write CSV rows, or raise ConfigError naming a path that cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows(rows)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from None


def cmd_train(args) -> int:
    cfg = _read_config(args.config) if args.config else {}
    data_path = Path(args.data or cfg.get("data.csv", ""))
    schema_path = args.schema or cfg.get("data.schema")
    if not data_path.name or not schema_path:
        raise ConfigError("train requires --data and --schema (or a [data] config section)")
    schema = load_schema(schema_path)
    where = "--lambda" if args.lam else f"{args.config}: [train] lambda"
    lambdas = [_parse(v, float, where) for v in (args.lam or cfg.get("train.lambda", "0.5").split())]
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda {lam} outside [0, 1]")
    out_dir = Path(args.out or cfg.get("output.dir", "runs"))
    run_id = args.run_id or cfg.get("output.run_id", "run")

    dataset = load_csv(data_path, schema)
    run_root = out_dir / run_id
    # A file anywhere on the run root's path would fail the first mkdir, after
    # a whole lambda had trained; the lambda directories still wait for it.
    for part in (run_root, *run_root.parents):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"output path {run_root}: {part} is a file, not a directory")
    if run_root.exists() and not args.force:
        raise ConfigError(f"run directory {run_root} exists (use --force to overwrite)")
    configs = [_train_config(cfg, lam, args) for lam in lambdas]
    if not configs:
        return 0

    # The split and the density ratio depend on the seed and the data, not
    # on lambda: compute them once and share them across the grid.
    base = configs[0]
    train_set, val_set = split_train_val(dataset, fraction=0.8, seed=base.seed)
    beta = None
    if args.criterion == "geo":
        beta = penalties.pretrain_density_ratio(
            train_set,
            L=base.L,
            n_b=base.n_b,
            learning_rate=base.learning_rate,
            seed=base.seed + 1,
            sampler=base.sampler,
        )
    attr_names = [c.name for c in dataset.sensitive_columns]
    for config in configs:
        init_rng = rng_streams(config.seed)["init"]
        h, D = default_networks(train_set, args.criterion, init_rng)
        snapshots = training.train(train_set, val_set, h, D, config, beta=beta)
        lam_dir = run_root / f"lambda={config.lam:g}"
        lam_dir.mkdir(parents=True, exist_ok=True)
        if beta is not None:
            _maybe_write_beta_table(beta, train_set, lam_dir / "beta_table.csv")
        _write_csv(lam_dir / "snapshots.csv", training.snapshot_csv_rows(snapshots, attr_names))
        h.save(lam_dir / "h_final.ckpt")
        D.save(lam_dir / "d_final.ckpt")
        print(f"wrote {lam_dir}/snapshots.csv ({len(snapshots)} snapshots)")
    return 0


def _maybe_write_beta_table(beta, dataset, path) -> None:
    if any(c.kind == "continuous" for c in dataset.schema if c.role in ("sensitive", "outcome")):
        return
    rows = [[f"a{i}" for i in range(dataset.l)] + ["y", "ratio"]]
    for cell in sorted({tuple(row) + (yv,) for row, yv in zip(dataset.A, dataset.Y)}):
        a_row = np.array(cell[:-1]).reshape(1, -1)
        ratio = float(beta(a_row, np.array([cell[-1]]))[0])
        rows.append([repr(float(v)) for v in cell] + [repr(ratio)])
    _write_csv(path, rows)


def cmd_evaluate(args) -> int:
    schema = load_schema(args.schema)
    dataset = load_csv(args.data, schema)
    h = Mlp.load(args.checkpoint)
    if h.in_dim != dataset.p:
        raise ConfigError(
            f"checkpoint expects {h.in_dim} features but dataset has {dataset.p}"
        )
    report = training.evaluate_snapshot(h, dataset)
    attr_names = [c.name for c in dataset.sensitive_columns]
    snap = training.Snapshot(0, "evaluate", report)
    _write_csv(args.out, training.snapshot_csv_rows([snap], attr_names))
    print(f"wrote {args.out}")
    return 0


def cmd_pareto(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    column = args.fairness_column
    header_cols, first_utility = None, None
    utilities, fairness, iterations, run_ids = [], [], [], []
    for path in args.snapshots:
        with csv_reader(path) as reader:
            cols = tuple(next(reader, ()))
            if header_cols is None:
                header_cols = cols
                if column not in cols:
                    raise ConfigError(f"fairness column {column!r} not in inputs")
                for name in ("iteration", "utility_name", "utility_value"):
                    if name not in cols:
                        raise ConfigError(f"{path}: row 1, column {name!r}: missing from the header")
                for i, name in enumerate(cols):
                    if name in cols[:i]:
                        raise ConfigError(f"{path}: row 1, column {name!r}: repeated in the header")
                it_i, name_i, u_i, f_i = map(cols.index, ("iteration", "utility_name", "utility_value", column))
            elif cols != header_cols:
                extra = sorted(set(cols).symmetric_difference(header_cols))
                raise ConfigError(f"{path}: snapshot schema mismatch on columns {extra}")
            kept = len(utilities)
            for row in filter(None, reader):  # blank lines skipped
                if len(row) != len(cols):
                    raise ConfigError(f"{path}: row {reader.line_num}: {len(row)} cells, "
                                      f"but the header has {len(cols)}")
                uname, uval, fval = row[name_i], row[u_i], row[f_i]
                if first_utility is None:
                    first_utility = uname
                elif uname != first_utility:
                    raise ConfigError(f"{path}: row {reader.line_num}, column 'utility_name': "
                                      f"{uname!r} cannot be pooled with {first_utility!r}")
                if fval in ("", "nan") or uval == "nan":
                    continue
                name, cell = "utility_value", uval  # the cell being parsed, for the error
                try:
                    utility = float(uval)
                    name, cell = column, fval
                    fval = float(fval)
                except ValueError:
                    raise ConfigError(
                        f"{path}: row {reader.line_num}, column {name!r}: {cell!r} is not a number") from None
                if not (math.isfinite(utility) and math.isfinite(fval)):
                    if utility != utility or fval != fval:  # NaN in another spelling: no point
                        continue
                    name, cell = ("utility_value", uval) if math.isinf(utility) else (column, cell)
                    raise ConfigError(f"{path}: row {reader.line_num}, column {name!r}: non-finite cell {cell!r}")
                utilities.append(utility)
                fairness.append(fval)
                iterations.append(row[it_i])
            run_ids.append((Path(path).stem, len(utilities) - kept))
    points = np.array([utilities, fairness], dtype=np.float64).T
    if first_utility == "mae":  # rank by -MAE
        points[:, 0] *= -1.0
    flags = metrics.frontier_flags(points)
    header = ["run_id", "iteration", "utility", "fairness_metric_name", "fairness_value", "on_frontier"]
    _write_csv(args.out, itertools.chain([header], zip(
        itertools.chain.from_iterable(itertools.repeat(*r) for r in run_ids), iterations,
        map(repr, utilities), itertools.repeat(column), map(repr, fairness), map(int, flags),
    )))
    print(f"wrote {args.out}")
    if args.utility_threshold is not None:
        # Equal points share a flag, so this is metrics.pareto_frontier(points).
        frontier = sorted(set(map(tuple, points[flags].tolist())))
        threshold = -args.utility_threshold if first_utility == "mae" else args.utility_threshold
        summary = metrics.topk_fair_summary(frontier, threshold, k=args.k)
        print(f"top-{args.k} fairness: mean={summary.mean!r} std={summary.std!r} count={summary.count}")
    return 0


def cmd_ratio_toy(args) -> int:
    for flag in ("n", "iters", "batch"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    dataset = oracles.table5_toy(args.n, seed=args.seed)
    beta = penalties.pretrain_density_ratio(dataset, L=args.iters, n_b=args.batch, seed=args.seed)
    true = oracles.table5_true_ratios()
    cells = [(1, 1), (0, 1), (1, 0), (0, 0)]  # matches the published ordering
    rows = [["cell", "true_ratio", "estimated_ratio", "abs_error"]]
    for a, y in cells:
        est = float(beta(np.array([[a]]), np.array([y]))[0])
        rows.append(
            [f"p({y}|{a})/p({y})", repr(true[(a, y)]), repr(est), repr(abs(est - true[(a, y)]))]
        )
    _write_csv(args.out, rows)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairpen")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the adversarial trainer over a lambda grid")
    p_train.add_argument("--config")
    p_train.add_argument("--data")
    p_train.add_argument("--schema")
    p_train.add_argument("--out")
    p_train.add_argument("--run-id")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--lambda", dest="lam", action="append")
    p_train.add_argument("--criterion", choices=("gsp", "geo"), default="gsp")
    p_train.add_argument("--sampler", choices=("within_batch", "disjoint"))
    p_train.add_argument("--scaling", choices=("convex", "plain"))
    p_train.add_argument("--force", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--schema", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_pareto = sub.add_parser("pareto", help="pool snapshot CSVs and flag the frontier")
    p_pareto.add_argument("snapshots", nargs="+")
    p_pareto.add_argument("--fairness-column", required=True)
    p_pareto.add_argument("--out", required=True)
    p_pareto.add_argument("--utility-threshold", type=float)
    p_pareto.add_argument("--k", type=int, default=5)
    p_pareto.set_defaults(func=cmd_pareto)

    p_toy = sub.add_parser("ratio-toy", help="reproduce the density-ratio toy experiment")
    p_toy.add_argument("--n", type=int, default=10000)
    p_toy.add_argument("--iters", type=int, default=10000)
    p_toy.add_argument("--batch", type=int, default=100)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--out", required=True)
    p_toy.set_defaults(func=cmd_ratio_toy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FairpenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
