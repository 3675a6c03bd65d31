"""Command-line surface.

Commands: gradcheck, reduce-check, gen-data, pretrain, knn, probe,
analyze. Exit codes: 0 success, 1 check failure, 2 usage or config
error, 3 I/O error. Failures print one machine-parseable line to stderr:
``error: <category>: <reason>``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .augment import (Dataset, generate_dataset, load_dataset, stratified_split,
                      synthetic_images, write_dataset)
from .checks import gradcheck_suite, mle_equivalence_suite, reduction_suite
from .config import ConfigError, Experiment, load_config
from .errors import ContractViolation, DomainError, EvaluationError
from .metrics import separability_report, write_separability_csv
from .nets import load_bundle
from .train import (EVAL_LOG_HEADER, build_eval_pairs, knn_eval, linear_probe, pretrain,
                    split_features, write_rows)
from .train import encode_features  # noqa: F401  (bench/spans.py traces cli.encode_features)
from .rng import derive

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_dataset(exp: Experiment) -> Dataset:
    if exp.dataset_path is not None:
        path = Path(exp.dataset_path)
        if not path.exists():
            raise FileNotFoundError(f"io.dataset: {path} does not exist")
        return load_dataset(path)
    return generate_dataset(exp.synthetic)


def _print_results(results) -> bool:
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_rel_err={r.error:.3e} (tol {r.tol:.0e})")
        ok = ok and r.passed
    return ok


def cmd_gradcheck(exp: Experiment) -> int:
    results = gradcheck_suite(seed=derive(exp.train.run_seed, "gradcheck"))
    ok = _print_results(results)
    if not ok:
        print("error: gradcheck: at least one variant exceeded tolerance", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_reduce_check(exp: Experiment) -> int:
    results = reduction_suite(seed=derive(exp.train.run_seed, "reduce"))
    results += mle_equivalence_suite(seed=derive(exp.train.run_seed, "mle"))
    ok = _print_results(results)
    if not ok:
        print("error: reduce-check: equivalence exceeded tolerance", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_gen_data(exp: Experiment) -> int:
    if exp.dataset_path is None:
        raise ConfigError("io.dataset: gen-data needs a target directory")
    # All images generated before the first write, in chunk arrays of at most
    # augment._CHUNK_BYTES: one (N, H, W, C) array made repeated runs in one process
    # grow the heap; image-by-image writes ran slower.
    write_dataset(list(synthetic_images(exp.synthetic)), exp.dataset_path)
    print(f"wrote {exp.synthetic.classes * exp.synthetic.per_class} images to {exp.dataset_path}")
    return EXIT_OK


def cmd_pretrain(exp: Experiment) -> int:
    dataset = _load_dataset(exp)
    result = pretrain(dataset, exp.model, exp.loss, exp.train, exp.pipeline,
                      exp.eval, out_dir=exp.output_dir)
    print(f"pretrained {exp.train.epochs} epochs; "
          f"checkpoint and logs in {exp.output_dir}")
    if result.eval_rows:
        print(f"final eval ({EVAL_LOG_HEADER}): {result.eval_rows[-1]}")
    return EXIT_OK


def _load_run(exp: Experiment):
    checkpoint = exp.output_dir / "checkpoint.bin"
    if not checkpoint.exists():
        raise FileNotFoundError(f"io.output_dir: no checkpoint at {checkpoint}")
    bundle = load_bundle(checkpoint)
    dataset = _load_dataset(exp)
    train_idx, test_idx = stratified_split(dataset.labels, exp.train.test_fraction)
    return bundle, dataset, train_idx, test_idx


def cmd_knn(exp: Experiment) -> int:
    acc = knn_eval(*split_features(*_load_run(exp)), exp.eval.knn_k)
    write_rows(exp.output_dir / "eval_log.csv", EVAL_LOG_HEADER, [f"-1,{acc!r},,"], append=True)
    print(f"knn_acc={acc}")
    return EXIT_OK


def cmd_probe(exp: Experiment) -> int:
    split = split_features(*_load_run(exp))
    rows = []
    for size in exp.eval.probe_sizes:
        acc = linear_probe(*split, size, derive(exp.train.run_seed, "probe"))
        rows.append(f"-1,,{acc!r},")
        print(f"probe_acc[{size} per class]={acc}")
    write_rows(exp.output_dir / "eval_log.csv", EVAL_LOG_HEADER, rows, append=True)
    return EXIT_OK


def cmd_analyze(exp: Experiment) -> int:
    bundle, dataset, train_idx, test_idx = _load_run(exp)
    pos_pairs, neg_pairs = build_eval_pairs(dataset.pixels[test_idx], exp.pipeline,
                                            exp.eval.pair_seed, exp.eval.pair_count)
    reports = separability_report(bundle, pos_pairs, neg_pairs)
    out = exp.output_dir / "separability.csv"
    write_separability_csv(out, reports)
    for report in reports:
        print(f"overlap[{report.source}]={report.overlap}")
    print(f"wrote {out}")
    return EXIT_OK


COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "reduce-check": cmd_reduce_check,
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "knn": cmd_knn,
    "probe": cmd_probe,
    "analyze": cmd_analyze,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrastlab",
        description="Desk-scale laboratory for adaptive multi-head contrastive learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("-c", "--config", default=None,
                         help="experiment JSON (defaults apply when omitted)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args.config)[0])
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ContractViolation, DomainError) as exc:
        print(f"error: contract: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluationError as exc:
        print(f"error: evaluation: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
