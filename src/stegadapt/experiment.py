"""Cross-domain task runner: datasets, training runs, ablations, exports.

A task is one ordered (source, target) domain pair. ``prepare_data`` builds
or loads the shared datasets (one vocabulary across all configured domains,
one generated dataset per domain), and the runners take them prepared. Each
run of a task, one per seed of ``cfg.eval.seeds``, pretrains on the labeled
source, optionally adapts to the unlabeled target, and scores the target
test split. Variants reuse identical data and seeds so comparisons isolate
the ablated component.

Each stage (pretrain, adapt, evaluate) is one function that the runners here
and the CLI share, and this module alone lays out and writes the run
directories and result files, and the data cache: its key, its layout and
each generated domain's ``manifest.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .adapt import TrainResult, evaluate_model, finetune, pretrain
from .config import ExperimentConfig
from .corpus import DomainDataset, TextSample, Vocab, dataset_from_jsonl, dataset_to_jsonl, strip_labels
from .corpus import atomic_open, reading, write_jsonl, write_lines
from .encoder import load_precomputed
from .errors import CorpusError
from .head import HeadConfig
from .metrics import Metrics, mean_std
from .model import Classifier, config_hash, save_checkpoint
from .parallel import _forked_map
from .stegogen import GENERATION_VERSION, DataConfig, build_domain_dataset, tokenize_corpus

ABLATIONS = ("none", "w-PL", "w-FF", "w-SLB")
SLB_LAYERS = 2  # Bi-LSTM layers of the stacked-LSTM (w-SLB) variant
CSV_COLUMNS = ("source", "target", "bpw", "coding", "variant", "seed", "acc", "f1", "tp", "fp", "tn", "fn", "n")
_STAGE_LOGS = {"pretrain": "pretrain_log.jsonl", "adapted": "rounds.jsonl"}  # stage -> its log file


@dataclass(frozen=True)
class TaskSpec:
    source: str
    target: str
    ablation: str = "none"

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("source and target domains must differ")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")

    @property
    def name(self) -> str:
        return f"{self.source}__{self.target}"


def check_domain_tag(tag: str, tags: Collection[str]) -> None:
    """Refuse a domain tag that is not one of the configured ``tags``."""
    if tag not in tags:
        raise ValueError(f"unknown domain tag {tag!r}; the config defines {sorted(tags)}")


@dataclass
class TaskData:
    vocab: Vocab | None
    datasets: dict[str, DomainDataset]
    store: dict[str, np.ndarray] | None = None

    def domain(self, tag: str) -> DomainDataset:
        check_domain_tag(tag, self.datasets)
        return self.datasets[tag]

    def task(self, spec: TaskSpec) -> tuple[DomainDataset, DomainDataset]:
        """The source and target datasets; an unknown tag raises ``ValueError``."""
        return self.domain(spec.source), self.domain(spec.target)


@dataclass
class SeedOutcome:
    seed: int
    pretrain_result: TrainResult
    adapt_result: TrainResult | None
    final_model: Classifier
    test_metrics: Metrics


@dataclass
class TaskResult:
    spec: TaskSpec
    rows: list[dict]
    mean_acc: float
    std_acc: float
    mean_f1: float
    std_f1: float


# ---------------------------------------------------------------------------
# Data preparation
# ---------------------------------------------------------------------------


def _data_key(data: DataConfig) -> str:
    """Cache key: the data section, ``GENERATION_VERSION`` and the SHA-256 of every file the section reads."""
    paths = [Path(corpus) for corpus in data.domains.values()]
    paths += [path for dirname in data.dataset_dirs.values() for path in Path(dirname).iterdir() if path.is_file()]
    files = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    return config_hash({**asdict(data), "file_sha256": files, "generation_version": GENERATION_VERSION})[:16]


def prepare_data(cfg: ExperimentConfig, cache_dir: str | Path | None = None) -> TaskData:
    """Build (or load from cache) every configured domain dataset.

    One vocabulary is built over the union of all domain corpora so token
    ids mean the same thing on both sides of every task; each domain then
    gets its own language model and generated dataset. Generated domains
    come from the cache when it is complete; every other step is the same
    for a cold and a warm cache. A cold cache gets the vocabulary and, per
    domain, its samples, splits and a ``manifest.json`` that records the
    generation spec, the domain seed and the vocabulary size. A domain
    depends only on its corpus, its seed and the vocabulary, so each domain
    is one item of a ``_forked_map`` call, which generates it and writes its
    cache files, or reads them back from a warm cache, in the process that
    owns it. This process writes ``vocab.json``, and ``COMPLETE`` only once
    every domain has returned, so a failed domain never leaves a cache that
    looks complete. A ``vocab.json`` in any ``dataset_dirs`` directory is the
    shared vocabulary (they must agree), and it encodes every directory's
    ``text`` records and surface tokens; without one, the builtin encoder
    refuses them, and token ids are refused beside a generated domain, whose
    vocabulary would give them other meanings. The ``dataset_dirs`` are read
    here, before the vocabulary is chosen.
    """
    # Looked up at call time: the benchmark's traced mode patches corpus.build_vocab,
    # and test_benchmark_trace_bindings_exist fails if this import is hoisted.
    from .corpus import build_vocab

    datasets: dict[str, DomainDataset] = {}
    vocab: Vocab | None = None
    for dirname in sorted(cfg.data.dataset_dirs.values()):
        vocab_file = Path(dirname) / "vocab.json"
        if vocab_file.exists():
            with reading(vocab_file):
                loaded = Vocab.from_json(vocab_file.read_text(encoding="utf-8"))
            if vocab is not None and loaded.id_to_token != vocab.id_to_token:
                raise CorpusError("dataset_dirs disagree on the vocabulary")
            vocab = loaded
    generated_tags = [t for t in cfg.data.domain_tags() if t not in cfg.data.dataset_dirs]
    for tag, dirname in sorted(cfg.data.dataset_dirs.items()):
        directory = Path(dirname)
        ds = datasets[tag] = dataset_from_jsonl(directory / "samples.jsonl", directory / "splits.jsonl", vocab=vocab)
        if vocab is None:
            surface = [type(s.tokens[0]) is str for s in ds.train + ds.val + ds.test]
            if any(surface) and cfg.encoder.kind == "builtin":
                raise CorpusError(f"{directory}: surface tokens need a vocab.json under the builtin encoder")
            if not all(surface) and generated_tags:
                raise CorpusError(f"{directory}: token ids need a vocab.json beside generated domains")
    cache_root = None
    if generated_tags and cache_dir is not None:
        cache_root = Path(cache_dir) / "data" / _data_key(cfg.data)
    if cache_root is not None and (cache_root / "COMPLETE").exists():
        with reading(cache_root / "vocab.json"):
            vocab = Vocab.from_json((cache_root / "vocab.json").read_text(encoding="utf-8"))
        loaded = _forked_map(
            lambda tag: dataset_from_jsonl(cache_root / tag / "samples.jsonl", cache_root / tag / "splits.jsonl"),
            generated_tags,
        )
        datasets.update(zip(generated_tags, loaded))
    elif generated_tags:
        texts = {tag: tokenize_corpus(cfg.data.domains[tag]) for tag in generated_tags}
        if vocab is None:
            union = [toks for tag in generated_tags for toks in texts[tag]]
            vocab = build_vocab(union, min_freq=cfg.data.min_freq)
        seeds = {
            tag: int(np.random.SeedSequence([cfg.data.seed, 0xD0, index]).generate_state(1)[0])
            for index, tag in enumerate(generated_tags)
        }
        if cache_root is not None:
            write_lines([vocab.to_json()], cache_root / "vocab.json")

        def generate(tag: str) -> DomainDataset:
            """One domain's dataset, written to its cache directory when there is a cache."""
            ds = build_domain_dataset(texts[tag], tag, cfg.data, seeds[tag], vocab)
            if cache_root is not None:
                tag_dir = cache_root / tag
                dataset_to_jsonl(ds, tag_dir / "samples.jsonl", tag_dir / "splits.jsonl")
                manifest = {
                    "generation_version": GENERATION_VERSION,
                    "domain": tag,
                    "seed": seeds[tag],
                    "lm_order": cfg.data.lm_order,
                    "alpha": cfg.data.alpha,
                    "bpw": cfg.data.bpw,
                    "coding": cfg.data.coding,
                    "payload_len": list(cfg.data.payload_bits),
                    "max_len": cfg.data.max_len,
                    "vocab_size": vocab.size,
                    "sizes": cfg.data.sizes,
                }
                write_lines([json.dumps(manifest, sort_keys=True, indent=2)], tag_dir / "manifest.json")
            return ds

        datasets.update(zip(generated_tags, _forked_map(generate, generated_tags)))
        if cache_root is not None:
            write_lines(["ok"], cache_root / "COMPLETE")

    store = None
    if cfg.features_path is not None:
        store, d_h = load_precomputed(cfg.features_path)
        if d_h is not None and d_h != cfg.encoder.d_h:
            raise CorpusError(f"feature store width {d_h} != configured d_h {cfg.encoder.d_h}")
    return TaskData(vocab=vocab, datasets=datasets, store=store)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------


def head_config_for(cfg: ExperimentConfig, spec: TaskSpec) -> HeadConfig:
    if spec.ablation == "w-FF":
        return replace(cfg.head, gate_bypass=True)
    if spec.ablation == "w-SLB":
        return replace(cfg.head, layers=SLB_LAYERS)
    return cfg.head


def build_model(cfg: ExperimentConfig, data: TaskData, spec: TaskSpec, seed: int) -> Classifier:
    vocab_size = data.vocab.size if data.vocab is not None else None
    return Classifier.build(cfg.encoder, head_config_for(cfg, spec), seed, vocab_size=vocab_size, store=data.store)


def checkpoint_path(
    out_dir: str | Path, spec: TaskSpec, seed: int, stage: str | None = None, variant: str | None = None
) -> Path:
    """``<out_dir>/runs/<source>__<target>/<variant>/seed<k>/<stage>.npz``, where a run's files live.

    The variant defaults to the ablation, the stage to ``adapted`` if that
    checkpoint exists and ``pretrain`` otherwise.
    """
    directory = Path(out_dir) / "runs" / spec.name / (variant or spec.ablation) / f"seed{seed}"
    if stage is None:
        stage = "adapted" if (directory / "adapted.npz").exists() else "pretrain"
    return directory / f"{stage}.npz"


def _save_stage(out_dir: str | Path | None, spec: TaskSpec, seed: int, stage: str, result: TrainResult) -> None:
    """Write a stage's checkpoint and log into the run directory, if there is one."""
    if out_dir is None:
        return
    path = checkpoint_path(out_dir, spec, seed, stage)
    save_checkpoint(path, result.model, extra={"stage": stage, "seed": seed, "variant": spec.ablation})
    write_jsonl(result.log, path.with_name(_STAGE_LOGS[stage]))


def pretrain_stage(
    cfg: ExperimentConfig, data: TaskData, spec: TaskSpec, seed: int, out_dir: str | Path | None = None
) -> TrainResult:
    """Stage 1: a fresh model trained on the labeled source domain."""
    source, _ = data.task(spec)
    result = pretrain(build_model(cfg, data, spec, seed), source.train, source.val, replace(cfg.train, seed=seed))
    _save_stage(out_dir, spec, seed, "pretrain", result)
    return result


def adapt_stage(
    cfg: ExperimentConfig,
    data: TaskData,
    spec: TaskSpec,
    seed: int,
    model: Classifier,
    out_dir: str | Path | None = None,
) -> TrainResult:
    """Stage 2: pseudo-label self-training of ``model`` on the unlabeled target domain."""
    _, target = data.task(spec)
    result = finetune(model, strip_labels(target.train), target.val, replace(cfg.train, seed=seed))
    _save_stage(out_dir, spec, seed, "adapted", result)
    return result


def evaluate_stage(
    cfg: ExperimentConfig, data: TaskData, spec: TaskSpec, model: Classifier, split: str = "test"
) -> Metrics:
    """Score ``model`` on the target domain's ``val`` or ``test`` split."""
    _, target = data.task(spec)
    return evaluate_model(model, getattr(target, split), cfg.train.eval_batch_size)


def run_seed(
    cfg: ExperimentConfig,
    data: TaskData,
    spec: TaskSpec,
    seed: int,
    artifacts_dir: str | Path | None = None,
) -> SeedOutcome:
    pre = pretrain_stage(cfg, data, spec, seed, artifacts_dir)
    adapt_result = None if spec.ablation == "w-PL" else adapt_stage(cfg, data, spec, seed, pre.model, artifacts_dir)
    final = pre.model if adapt_result is None else adapt_result.model
    return SeedOutcome(
        seed=seed,
        pretrain_result=pre,
        adapt_result=adapt_result,
        final_model=final,
        test_metrics=evaluate_stage(cfg, data, spec, final),
    )


def result_row(cfg: ExperimentConfig, spec: TaskSpec, seed: int, metrics: Metrics, variant: str | None = None) -> dict:
    """One CSV row; the variant label defaults to the ablation."""
    return {
        "source": spec.source,
        "target": spec.target,
        "bpw": cfg.data.bpw,
        "coding": cfg.data.coding,
        "variant": variant or spec.ablation,
        "seed": seed,
        **metrics.as_dict(),
    }


def _aggregate(spec: TaskSpec, rows: list[dict]) -> TaskResult:
    mean_acc, std_acc = mean_std([r["acc"] for r in rows])
    mean_f1, std_f1 = mean_std([r["f1"] for r in rows])
    return TaskResult(spec=spec, rows=rows, mean_acc=mean_acc, std_acc=std_acc, mean_f1=mean_f1, std_f1=std_f1)


# ---------------------------------------------------------------------------
# Task, ablation, matrix
# ---------------------------------------------------------------------------


def run_task(
    cfg: ExperimentConfig, data: TaskData, spec: TaskSpec, out_dir: str | Path | None = None
) -> TaskResult:
    """Train and score one task over ``cfg.eval.seeds``; mean and std reported."""
    outcomes = [run_seed(cfg, data, spec, seed, out_dir) for seed in cfg.eval.seeds]
    rows = [result_row(cfg, spec, outcome.seed, outcome.test_metrics) for outcome in outcomes]
    return _aggregate(spec, rows)


def run_ablation(
    cfg: ExperimentConfig, data: TaskData, source: str, target: str, out_dir: str | Path | None = None
) -> dict[str, TaskResult]:
    """All four variants on one task with shared data and ``cfg.eval.seeds``.

    The no-adaptation variant reuses the full run's pretraining checkpoint:
    with identical seeds the two pretraining stages are identical by
    construction, so training it twice would only burn time.
    """
    specs = {name: TaskSpec(source=source, target=target, ablation=name) for name in ABLATIONS}
    rows: dict[str, list[dict]] = {name: [] for name in ABLATIONS}
    for seed in cfg.eval.seeds:
        full = run_seed(cfg, data, specs["none"], seed, out_dir)
        rows["none"].append(result_row(cfg, specs["none"], seed, full.test_metrics))

        _save_stage(out_dir, specs["w-PL"], seed, "pretrain", full.pretrain_result)
        wpl_metrics = evaluate_stage(cfg, data, specs["w-PL"], full.pretrain_result.model)
        rows["w-PL"].append(result_row(cfg, specs["w-PL"], seed, wpl_metrics))

        for name in ("w-FF", "w-SLB"):
            outcome = run_seed(cfg, data, specs[name], seed, out_dir)
            rows[name].append(result_row(cfg, specs[name], seed, outcome.test_metrics))
    return {name: _aggregate(specs[name], rows[name]) for name in ABLATIONS}


def task_pairs(tags: Sequence[str]) -> list[tuple[str, str]]:
    ordered = sorted(tags)
    return [(s, t) for s in ordered for t in ordered if s != t]


def run_matrix(
    cfg: ExperimentConfig, data: TaskData, out_dir: str | Path | None = None
) -> dict[tuple[str, str], TaskResult]:
    """The full cross-domain matrix: every ordered domain pair, full method."""
    return {
        (source, target): run_task(cfg, data, TaskSpec(source=source, target=target), out_dir)
        for source, target in task_pairs(cfg.data.domain_tags())
    }


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def results_path(out_dir: str | Path, filename: str) -> Path:
    return Path(out_dir) / "results" / filename


def write_results(
    results: Mapping[str, Mapping[tuple[str, str], TaskResult]], out_dir: str | Path, name: str, title: str
) -> tuple[Path, Path]:
    """Every row to ``results/<name>.csv`` and the summary table to ``results/<name>.md``.

    ``results`` maps variant name to {(source, target): TaskResult}.
    """
    csv_path, md_path = results_path(out_dir, f"{name}.csv"), results_path(out_dir, f"{name}.md")
    write_rows_csv([row for per_task in results.values() for result in per_task.values() for row in result.rows], csv_path)
    write_markdown_summary(results, md_path, title)
    return csv_path, md_path


def write_rows_csv(rows: Sequence[Mapping], path: str | Path) -> None:
    cells = [[f"{row[c]:.6f}" if isinstance(row[c], float) else str(row[c]) for c in CSV_COLUMNS] for row in rows]
    _write_csv([CSV_COLUMNS, *cells], path)


def _write_csv(rows: Sequence[Sequence[str]], path: str | Path) -> None:
    """Write string rows atomically; a field holding a comma, quote or newline is quoted."""
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_markdown_summary(
    results: Mapping[str, Mapping[tuple[str, str], TaskResult]],
    path: str | Path,
    title: str,
) -> None:
    """Variant rows by task columns (ACC and F1), with a trailing average.

    ``results`` maps variant name to {(source, target): TaskResult}, every
    variant over the same tasks; with no tasks the averages read ``-``.
    """
    tasks = sorted({pair for per_task in results.values() for pair in per_task})
    header = ["Model"]
    for source, target in tasks:
        header += [f"{source}=>{target} ACC", f"{source}=>{target} F1"]
    header += ["Avg ACC", "Avg F1"]
    lines = [f"## {title}", "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for variant, per_task in results.items():
        cells = [variant]
        accs, f1s = [], []
        for pair in tasks:
            result = per_task[pair]
            cells += [f"{result.mean_acc:.4f}±{result.std_acc:.4f}", f"{result.mean_f1:.4f}±{result.std_f1:.4f}"]
            accs.append(result.mean_acc)
            f1s.append(result.mean_f1)
        cells += [f"{np.mean(accs):.4f}" if accs else "-", f"{np.mean(f1s):.4f}" if f1s else "-"]
        lines.append("| " + " | ".join(cells) + " |")
    write_lines(lines, path)


# ---------------------------------------------------------------------------
# Feature projection export
# ---------------------------------------------------------------------------


def export_projection(
    model: Classifier, samples: Sequence[TextSample], path: str | Path, batch_size: int
) -> np.ndarray:
    """Project pooled gated features onto their top-2 principal components.

    ``model`` predicts ``batch_size`` samples at a time. Writes ``id,x,y,label``
    rows (label empty for unlabeled samples) and returns the coordinates.
    Components come from a deterministic eigendecomposition of the feature
    covariance with a fixed sign rule.
    """
    if len(samples) < 3:
        raise ValueError("projection needs at least 3 samples")
    _, pooled = model.predict(samples, batch_size, return_pooled=True)
    pooled = pooled.astype(np.float64)
    centered = pooled - pooled.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (centered.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:2]
    components = eigenvectors[:, order].T
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    coords = centered @ components.T
    rows = [("id", "x", "y", "label")]
    for sample, (x, y) in zip(samples, coords):
        rows.append((sample.id, f"{x:.8f}", f"{y:.8f}", "" if sample.label is None else str(sample.label)))
    _write_csv(rows, path)
    return coords
