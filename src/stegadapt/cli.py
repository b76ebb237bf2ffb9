"""Command-line entry point.

Every command reads the same JSON config and writes under ``--out-dir``.
``main`` applies ``--seed`` once, as the config's ``eval.seeds``, so every
command runs the seeds of ``cfg.eval.seeds``: the stage commands and the
runners loop over them, and ``export-features`` projects the first one's
checkpoint. ``gen-data`` takes no ``--seed``; its data follows ``data.seed``.
Every ``--source``, ``--target`` and ``--domain`` tag is checked against the
config before any data is prepared. Metrics land in CSV files (one row per
task, variant, and seed) plus a Markdown summary table, and all outputs are
byte-stable for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import EvalConfig, ExperimentConfig, load_config
from .errors import StegadaptError
from .experiment import (
    TaskData,
    TaskResult,
    TaskSpec,
    adapt_stage,
    check_domain_tag,
    checkpoint_path,
    evaluate_stage,
    export_projection,
    prepare_data,
    pretrain_stage,
    result_row,
    results_path,
    run_ablation,
    run_matrix,
    write_results,
    write_rows_csv,
)
from .model import load_checkpoint
from .stegogen import DOMAIN_TAG


def _base_parser(sub, name, help_text, task=True, seed=True):
    cmd = sub.add_parser(name, help=help_text)
    cmd.add_argument("-c", "--config", required=True, help="path to the JSON experiment config")
    cmd.add_argument("--out-dir", default="out", help="artifact root (default: ./out)")
    if seed:
        cmd.add_argument("--seed", type=int, default=None, help="override the config's seed list with one seed")
    if task:
        cmd.add_argument("--source", required=True, help="source domain tag")
        cmd.add_argument("--target", required=True, help="target domain tag")
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stegadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _base_parser(sub, "gen-data", "generate or refresh every configured domain dataset", task=False, seed=False)

    _base_parser(sub, "pretrain", "stage 1: train on the labeled source domain")

    adapt = _base_parser(sub, "adapt", "stage 2: pseudo-label self-training on the target domain")
    adapt.add_argument("--checkpoint", default=None, help="pretraining checkpoint to start from")

    ev = _base_parser(sub, "evaluate", "score a checkpoint on a target split")
    ev.add_argument("--checkpoint", default=None, help="checkpoint file (default: adapted, else pretrain)")
    ev.add_argument("--split", choices=("val", "test"), default="test")
    ev.add_argument("--variant", default="none", help="variant label used for artifact paths")

    _base_parser(sub, "ablate", "run the full method and the three ablations")

    ex = _base_parser(sub, "export-features", "write a 2-D feature projection CSV")
    ex.add_argument("--checkpoint", default=None)
    ex.add_argument("--domain", default=None, help="domain to project (default: the target)")
    ex.add_argument("--split", choices=("train", "val", "test"), default="test")
    ex.add_argument("--out", default=None, help="output CSV path")

    _base_parser(sub, "matrix", "run every ordered cross-domain task", task=False)
    return parser


def _task(cfg: ExperimentConfig, args, *tags: str) -> tuple[TaskData, TaskSpec]:
    """Prepared data and the task; an unknown domain tag fails before any data is prepared or run file read."""
    spec = TaskSpec(source=args.source, target=args.target)
    for tag in (spec.source, spec.target, *tags):
        check_domain_tag(tag, cfg.data.domain_tags())
    return prepare_data(cfg, args.out_dir), spec


def _score(value: float | None) -> str:
    """A best validation score, or ``n/a`` when no round or epoch ran."""
    return "n/a" if value is None else f"{value:.4f}"


def cmd_gen_data(cfg: ExperimentConfig, args) -> int:
    data = prepare_data(cfg, args.out_dir)
    for tag in sorted(data.datasets):
        ds = data.datasets[tag]
        print(f"domain {tag}: train {ds.n_train}, val {len(ds.val)}, test {len(ds.test)}")
    if data.vocab is not None:
        print(f"vocab size {data.vocab.size}")
    return 0


def cmd_pretrain(cfg: ExperimentConfig, args) -> int:
    data, spec = _task(cfg, args)
    for seed in cfg.eval.seeds:
        result = pretrain_stage(cfg, data, spec, seed, args.out_dir)
        print(f"seed {seed}: best source-val ACC {_score(result.best_val_score)} at epoch {result.best_index}")
    return 0


def cmd_adapt(cfg: ExperimentConfig, args) -> int:
    data, spec = _task(cfg, args)
    for seed in cfg.eval.seeds:
        ckpt = args.checkpoint or checkpoint_path(args.out_dir, spec, seed, "pretrain")
        model, _ = load_checkpoint(ckpt, store=data.store)
        result = adapt_stage(cfg, data, spec, seed, model, args.out_dir)
        print(f"seed {seed}: best target-val ACC {_score(result.best_val_score)} at round {result.best_index}")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    if not DOMAIN_TAG.fullmatch(args.variant):  # it names a directory and a file under --out-dir
        raise ValueError(f"--variant {args.variant!r} must match {DOMAIN_TAG.pattern}")
    data, spec = _task(cfg, args)
    rows = []
    for seed in cfg.eval.seeds:
        ckpt = args.checkpoint or checkpoint_path(args.out_dir, spec, seed, variant=args.variant)
        model, _ = load_checkpoint(ckpt, store=data.store)
        metrics = evaluate_stage(cfg, data, spec, model, args.split)
        rows.append(result_row(cfg, spec, seed, metrics, variant=args.variant))
        print(f"seed {seed}: {args.split} ACC {metrics.acc:.4f} F1 {metrics.f1:.4f}")
    out = results_path(args.out_dir, f"evaluate_{spec.name}_{args.variant}_{args.split}.csv")
    write_rows_csv(rows, out)
    print(f"wrote {out}")
    return 0


def _report(args, results: dict, name: str, title: str, labelled: dict[str, TaskResult]) -> int:
    """Write the CSV and Markdown result files and print one line per labelled result."""
    csv_path, md_path = write_results(results, args.out_dir, name, title)
    for label, result in labelled.items():
        print(f"{label}: ACC {result.mean_acc:.4f}±{result.std_acc:.4f} F1 {result.mean_f1:.4f}±{result.std_f1:.4f}")
    print(f"wrote {csv_path} and {md_path}")
    return 0


def cmd_ablate(cfg: ExperimentConfig, args) -> int:
    data, _ = _task(cfg, args)
    results = run_ablation(cfg, data, args.source, args.target, args.out_dir)
    task = {variant: {(args.source, args.target): result} for variant, result in results.items()}
    name = f"ablation_{args.source}__{args.target}"
    return _report(args, task, name, f"Ablations {args.source}=>{args.target}", results)


def cmd_export_features(cfg: ExperimentConfig, args) -> int:
    domain = args.domain or args.target
    data, spec = _task(cfg, args, domain)
    ckpt = args.checkpoint or checkpoint_path(args.out_dir, spec, cfg.eval.seeds[0])
    model, _ = load_checkpoint(ckpt, store=data.store)
    samples = getattr(data.domain(domain), args.split)
    out = args.out or results_path(args.out_dir, f"projection_{domain}_{args.split}.csv")
    export_projection(model, samples, out, cfg.train.eval_batch_size)
    print(f"wrote {out} ({len(samples)} points)")
    return 0


def cmd_matrix(cfg: ExperimentConfig, args) -> int:
    results = run_matrix(cfg, prepare_data(cfg, args.out_dir), args.out_dir)
    labelled = {f"{source}=>{target}": result for (source, target), result in results.items()}
    return _report(args, {"full": results}, "matrix", "Cross-domain matrix", labelled)


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "adapt": cmd_adapt,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "export-features": cmd_export_features,
    "matrix": cmd_matrix,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, eval=EvalConfig(seeds=(args.seed,)))
        return _HANDLERS[args.command](cfg, args)
    except (StegadaptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
