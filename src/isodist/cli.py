"""Command-line interface: fit models, emit distances and scores, run benchmarks.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from .baselines import BaselineError
from .data import DataError, deduplicate, load_csv, load_schema_sidecar
from .distance import anomaly_scores, separation_matrix
from .forest import (
    TERMINAL,
    FitError,
    ForestParams,
    ModelFormatError,
    fit_forest,
    load_model,
    remap_dataset,
    save_model,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_or_full(text: str):
    if text == "full":
        return None
    return _positive_int(text)


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"file not found: {text}")
    return text


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["single", "extended"], default="single")
    p.add_argument("--trees", type=_positive_int, default=100)
    p.add_argument("--ndim", type=_positive_int, default=None,
                   help="variables per hyperplane split (extended model)")
    p.add_argument("--max-depth", type=_positive_or_full, default=None,
                   metavar="N|full", help="tree depth cap (default: full)")
    p.add_argument("--subsample", type=_positive_or_full, default=None,
                   metavar="N|full", help="per-tree subsample size (default: full)")
    p.add_argument("--seed", type=int, default=0)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", type=_existing_file, required=True)
    p.add_argument("--missing-token", default="NA",
                   help="extra token parsed as missing (empty cells always are)")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--schema", type=_existing_file, default=None,
                   help="JSON sidecar mapping column name -> kind")


def _load_input(args):
    schema = load_schema_sidecar(args.schema) if args.schema else None
    return load_csv(
        args.input,
        schema=schema,
        has_header=not args.no_header,
        missing_tokens=("", args.missing_token),
    )


def _make_params(args) -> ForestParams:
    ndim = args.ndim
    if ndim is None:
        ndim = 1 if args.model == "single" else 2
    return ForestParams(
        n_trees=args.trees,
        subsample=args.subsample,
        ndim=ndim,
        max_depth=args.max_depth,
        seed=args.seed,
        model_kind=args.model,
    )


def cmd_fit(args) -> int:
    ds = _load_input(args)
    forest = fit_forest(ds, _make_params(args))
    save_model(forest, args.output)
    depths = forest.flat.depth[forest.flat.kind == TERMINAL]
    print(
        f"fitted {forest.params.model_kind} model: "
        f"{forest.params.n_trees} trees on {ds.n_rows} rows "
        f"(subsample {forest.n_sub}); "
        f"leaf depth mean {depths.mean():.2f} max {depths.max()}"
    )
    print(f"model written to {args.output}")
    return 0


def _fit_or_load(args):
    if args.fit_predict:
        ds = _load_input(args)
        return fit_forest(ds, _make_params(args)), ds
    return load_model(args.model_file), _load_input(args)


def cmd_dist(args) -> int:
    forest, ds = _fit_or_load(args)
    _, gmap = deduplicate(remap_dataset(forest, ds))
    n_dup = ds.n_rows - int(gmap.max()) - 1
    if n_dup:
        print(f"note: {n_dup} duplicate rows collapsed (distance 0 within groups)",
              file=sys.stderr)
    matrix = separation_matrix(forest, ds)
    if args.format == "bin":
        matrix.write_binary(args.output)
    else:
        matrix.write_csv(args.output)
    if ds.n_rows == 2:
        print(f"distance: {float(matrix[0, 1])!r}")
    print(f"{ds.n_rows}x{ds.n_rows} distance matrix written to {args.output}")
    return 0


def cmd_score(args) -> int:
    forest, ds = _fit_or_load(args)
    scores = anomaly_scores(forest, ds)
    with open(args.output, "w") as fh:
        fh.write("score\n")
        for s in scores:
            fh.write(f"{float(s)!r}\n")
    print(f"{len(scores)} scores written to {args.output}")
    return 0


def cmd_bench(args) -> int:
    report = bench_mod.run_bench(
        scenario=args.scenario,
        rows=args.rows,
        trees=args.trees,
        n_seeds=args.seeds,
        base_seed=args.seed,
        input_path=args.input,
        missing_tokens=("", args.missing_token),
    )
    print(bench_mod.format_report(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report JSON written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodist",
        description="Tree-ensemble separation-depth distances for tabular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and write it to a model file")
    _add_data_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--output", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_dist = sub.add_parser("dist", help="compute a pairwise distance matrix")
    _add_data_flags(p_dist)
    source = p_dist.add_mutually_exclusive_group(required=True)
    source.add_argument("--model-file", type=_existing_file)
    source.add_argument("--fit-predict", action="store_true",
                        help="fit on the input data, then compute distances")
    _add_fit_flags(p_dist)
    p_dist.add_argument("--output", required=True)
    p_dist.add_argument("--format", choices=["csv", "bin"], default="csv")
    p_dist.set_defaults(func=cmd_dist)

    p_score = sub.add_parser("score", help="compute per-row anomaly scores")
    _add_data_flags(p_score)
    source = p_score.add_mutually_exclusive_group(required=True)
    source.add_argument("--model-file", type=_existing_file)
    source.add_argument("--fit-predict", action="store_true")
    _add_fit_flags(p_score)
    p_score.add_argument("--output", required=True)
    p_score.set_defaults(func=cmd_score)

    p_bench = sub.add_parser("bench", help="run a comparison scenario")
    p_bench.add_argument("--scenario", choices=bench_mod.SCENARIOS, required=True)
    p_bench.add_argument("--rows", type=_positive_int, default=500)
    p_bench.add_argument("--trees", type=_positive_int, default=100)
    p_bench.add_argument("--seeds", type=_positive_int, default=5,
                         help="number of seeds to average over")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--input", type=_existing_file, default=None,
                         help="CSV for the gower scenario")
    p_bench.add_argument("--missing-token", default="NA")
    p_bench.add_argument("--output", default=None, help="write report JSON here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FitError, ModelFormatError, BaselineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
