from __future__ import annotations

import builtins
import json
from pathlib import Path

import numpy as np
import pytest

from stegadapt.adapt import TrainResult, evaluate_model
from stegadapt.config import config_from_dict
from stegadapt.corpus import TextSample
from stegadapt.encoder import EncoderConfig
from stegadapt.head import HeadConfig
from stegadapt.model import Classifier
from stegadapt.experiment import (
    TaskResult,
    TaskSpec,
    ABLATIONS,
    _save_stage,
    build_model,
    export_projection,
    prepare_data,
    run_ablation,
    run_matrix,
    run_seed,
    run_task,
    task_pairs,
    write_markdown_summary,
    write_rows_csv,
)
from oracles import models_equal


@pytest.fixture(scope="module")
def tiny_cfg(tiny_config_dict):
    return config_from_dict(tiny_config_dict)


@pytest.fixture(scope="module")
def tiny_data(tiny_cfg):
    return prepare_data(tiny_cfg)


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(source="S", target="S")
    with pytest.raises(ValueError):
        TaskSpec(source="S", target="F", ablation="nope")


def test_task_pairs_orders_all_directed_pairs():
    assert task_pairs(["N", "M", "T"]) == [
        ("M", "N"), ("M", "T"), ("N", "M"), ("N", "T"), ("T", "M"), ("T", "N"),
    ]


def test_prepare_data_builds_shared_vocab_and_all_domains(tiny_cfg, tiny_data):
    assert set(tiny_data.datasets) == {"S", "F"}
    assert tiny_data.vocab is not None
    for ds in tiny_data.datasets.values():
        assert ds.n_train == 24
        ids = {t for s in ds.train for t in s.tokens}
        assert max(ids) < tiny_data.vocab.size


def test_prepare_data_cache_roundtrip(tiny_cfg, tmp_path):
    first = prepare_data(tiny_cfg, tmp_path)
    again = prepare_data(tiny_cfg, tmp_path)
    assert first.datasets == again.datasets
    assert first.vocab.id_to_token == again.vocab.id_to_token


# Recorded from the generator before ``build_domain_dataset`` read a ``DataConfig``;
# the per-domain seed is derived from ``data.seed`` and the domain's index.
_TINY_MANIFESTS = {
    tag: {
        "alpha": 0.5,
        "bpw": 1,
        "coding": "flc",
        "domain": tag,
        "lm_order": 1,
        "max_len": 24,
        "payload_len": [4, 10],
        "seed": seed,
        "sizes": {"test": 4, "train": 12, "val": 4},
        "vocab_size": 40,
    }
    for tag, seed in (("F", 1237591376), ("S", 3722816075))
}


def test_cold_prepare_data_writes_pinned_manifests(tiny_cfg, tmp_path):
    prepare_data(tiny_cfg, tmp_path)
    written = {path.parent.name: path.read_text() for path in tmp_path.glob("data/*/*/manifest.json")}
    assert written == {tag: json.dumps(m, sort_keys=True, indent=2) + "\n" for tag, m in _TINY_MANIFESTS.items()}


def test_cold_prepare_data_tokenizes_each_corpus_line_once(tiny_cfg, tmp_path, monkeypatch):
    from stegadapt import corpus, stegogen

    calls = []
    tokenize = corpus.tokenize

    def counting(line):
        calls.append(line)
        return tokenize(line)

    monkeypatch.setattr(stegogen, "tokenize", counting)
    monkeypatch.setattr(corpus, "tokenize", counting)
    prepare_data(tiny_cfg, tmp_path)
    lines = [line for path in tiny_cfg.data.domains.values() for line in Path(path).read_text().splitlines()]
    assert sorted(calls) == sorted(lines)


def test_prepare_data_cache_follows_corpus_contents(tiny_config_dict, tmp_path):
    from conftest import write_toy_corpus

    corpus = write_toy_corpus(tmp_path / "sea.txt", "tide harbor mast sail gull rope".split(), seed=11)
    raw = {**tiny_config_dict, "data": {**tiny_config_dict["data"], "domains": {
        "S": str(corpus), "F": tiny_config_dict["data"]["domains"]["F"]}}}
    cfg = config_from_dict(raw)
    prepare_data(cfg, tmp_path / "cache")
    warm = prepare_data(cfg, tmp_path / "cache")
    write_toy_corpus(corpus, "lamp wick oil shade glass flame".split(), seed=33)
    fresh = prepare_data(cfg)
    again = prepare_data(cfg, tmp_path / "cache")
    assert again.datasets == fresh.datasets != warm.datasets
    assert again.vocab.id_to_token == fresh.vocab.id_to_token


def test_prepare_data_checks_feature_store_width_on_warm_cache(tiny_config_dict, tmp_path):
    from feature_store import save_precomputed
    from stegadapt.errors import CorpusError

    features_path = tmp_path / "features.jsonl"
    save_precomputed({"s0": np.zeros((2, 8))}, d_h=8, path=features_path)
    encoder = {**tiny_config_dict["encoder"], "kind": "precomputed", "features_path": str(features_path)}
    cfg = config_from_dict({**tiny_config_dict, "encoder": encoder})
    assert cfg.encoder.d_h != 8
    for _ in ("cold", "warm"):
        with pytest.raises(CorpusError, match="feature store width 8"):
            prepare_data(cfg, tmp_path / "cache")
    assert list((tmp_path / "cache" / "data").glob("*/COMPLETE"))


def test_benchmark_trace_bindings_exist():
    """The benchmark's traced mode wraps package functions by name; each must still exist."""
    import importlib.util
    import pathlib
    from types import SimpleNamespace

    from stegadapt import adapt, corpus, encoder, experiment, model, stegogen

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    sa = SimpleNamespace(corpus=corpus, stegogen=stegogen, encoder=encoder, model=model, adapt=adapt,
                         experiment=experiment)
    try:
        tracing.instrument(tracer, sa)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_run_seed_wpl_skips_finetune(tiny_cfg, tiny_data):
    spec = TaskSpec(source="S", target="F", ablation="w-PL")
    outcome = run_seed(tiny_cfg, tiny_data, spec, seed=0)
    assert outcome.adapt_result is None
    assert models_equal(outcome.final_model, outcome.pretrain_result.model)


def test_run_seed_full_method_adapts(tiny_cfg, tiny_data):
    spec = TaskSpec(source="S", target="F")
    outcome = run_seed(tiny_cfg, tiny_data, spec, seed=0)
    assert outcome.adapt_result is not None
    assert len(outcome.adapt_result.log) == tiny_cfg.train.finetune_rounds
    assert 0.0 <= outcome.test_metrics.acc <= 1.0


def test_run_task_aggregates_over_seeds(tiny_cfg, tiny_data):
    result = run_task(tiny_cfg, TaskSpec(source="S", target="F"), data=tiny_data, seeds=[0, 1])
    assert len(result.rows) == 2
    accs = [r["acc"] for r in result.rows]
    assert result.mean_acc == pytest.approx(np.mean(accs))
    assert result.std_acc == pytest.approx(np.std(accs))
    assert {r["seed"] for r in result.rows} == {0, 1}


def test_run_ablation_shapes_and_shared_pretrain(tiny_cfg, tiny_data):
    results = run_ablation(tiny_cfg, "S", "F", data=tiny_data, seeds=[0])
    assert list(results) == ["none", "w-PL", "w-FF", "w-SLB"]
    for result in results.values():
        assert len(result.rows) == 1
        assert set(result.rows[0]) >= {"acc", "f1", "variant", "seed"}
    # 4 variants x (ACC, F1) table shape
    table = [(r.rows[0]["acc"], r.rows[0]["f1"]) for r in results.values()]
    assert len(table) == 4 and all(len(cell) == 2 for cell in table)


def test_ablation_isolation_hashes(tiny_cfg, tiny_data):
    hashes = {
        name: build_model(tiny_cfg, tiny_data, TaskSpec(source="S", target="F", ablation=name), seed=0).component_hashes()
        for name in ABLATIONS
    }
    assert hashes["none"]["encoder"] == hashes["w-FF"]["encoder"] == hashes["w-SLB"]["encoder"]
    assert hashes["none"]["head"] == hashes["w-PL"]["head"]
    assert hashes["w-FF"]["head"] != hashes["none"]["head"]
    assert hashes["w-SLB"]["head"] != hashes["none"]["head"]
    changed = [v for v in ("w-FF", "w-SLB") if hashes[v]["head"] != hashes["none"]["head"]]
    assert changed == ["w-FF", "w-SLB"]


def test_run_matrix_emits_all_pairs_with_rows(tiny_cfg):
    results = run_matrix(tiny_cfg, seeds=[0])
    assert set(results) == {("F", "S"), ("S", "F")}
    rows = [row for r in results.values() for row in r.rows]
    assert len(rows) == 2


def test_write_rows_csv_format(tmp_path, tiny_cfg, tiny_data):
    result = run_task(tiny_cfg, TaskSpec(source="S", target="F"), data=tiny_data, seeds=[0])
    path = tmp_path / "rows.csv"
    write_rows_csv(result.rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "source,target,bpw,coding,variant,seed,acc,f1,tp,fp,tn,fn,n"
    assert lines[1].startswith("S,F,1,flc,none,0,")
    assert len(lines) == 2


def test_write_markdown_summary(tmp_path, tiny_cfg, tiny_data):
    result = run_task(tiny_cfg, TaskSpec(source="S", target="F"), data=tiny_data, seeds=[0])
    path = tmp_path / "summary.md"
    write_markdown_summary({"full": {("S", "F"): result}}, path, "demo")
    text = path.read_text()
    assert "| Model | S=>F ACC | S=>F F1 | Avg ACC | Avg F1 |" in text
    assert "| full |" in text


def test_markdown_average_column_is_mean_of_task_means(tmp_path, tiny_cfg, tiny_data):
    a = run_task(tiny_cfg, TaskSpec(source="S", target="F"), data=tiny_data, seeds=[0])
    b = run_task(tiny_cfg, TaskSpec(source="F", target="S"), data=tiny_data, seeds=[0])
    path = tmp_path / "summary.md"
    write_markdown_summary({"full": {("S", "F"): a, ("F", "S"): b}}, path, "demo")
    row = [l for l in path.read_text().splitlines() if l.startswith("| full")][0]
    cells = [c.strip() for c in row.strip("|").split("|")]
    avg_acc = float(cells[-2])
    assert avg_acc == pytest.approx(np.mean([a.mean_acc, b.mean_acc]), abs=5e-5)


# ---------------------------------------------------------------------------
# projection export
# ---------------------------------------------------------------------------


def _projection_model(d_h=6, hidden=3, seed=0):
    return Classifier.build(
        EncoderConfig(d_h=d_h, seed=seed), HeadConfig(d_h=d_h, hidden=hidden), seed=seed, vocab_size=16
    )


def _id_samples(n, label=None):
    return [TextSample(id=f"p{i}", tokens=(4 + (i % 5),), label=label, domain="M") for i in range(n)]


def test_projection_rejects_too_few_samples(tmp_path):
    model = _projection_model()
    with pytest.raises(ValueError):
        export_projection(model, _id_samples(2), tmp_path / "p.csv", 256)


def test_projection_identical_features_land_at_origin(tmp_path):
    model = _projection_model()
    samples = [TextSample(id=f"p{i}", tokens=(4,), label=None, domain="M") for i in range(5)]
    coords = export_projection(model, samples, tmp_path / "p.csv", 256)
    np.testing.assert_allclose(coords, 0.0, atol=1e-12)
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "id,x,y,label"
    assert len(lines) == 6


def test_projection_is_computed_in_double_precision(tmp_path):
    # predict returns float32 pooled features; the PCA runs on a float64 copy.
    coords = export_projection(_projection_model(), _id_samples(6), tmp_path / "p.csv", 256)
    assert coords.dtype == np.float64


def test_projection_separates_two_clusters(tmp_path, monkeypatch):
    model = _projection_model()
    samples = _id_samples(8)

    def fake_predict(samples, batch_size, return_pooled=False):
        n = len(samples)
        pooled = np.zeros((n, 6))
        pooled[: n // 2, 0] = 1.0
        pooled[n // 2 :, 0] = -1.0
        return np.full((n, 2), 0.5), pooled

    monkeypatch.setattr(model, "predict", fake_predict)
    coords = export_projection(model, samples, tmp_path / "p.csv", 256)
    first, second = coords[:4, 0], coords[4:, 0]
    assert np.all(np.sign(first) == np.sign(first[0]))
    assert np.all(np.sign(second) == -np.sign(first[0]))


def test_projection_beats_random_2d_projections(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
    model = _projection_model(d_h=5)
    samples = _id_samples(40)
    monkeypatch.setattr(
        model, "predict", lambda s, batch_size, return_pooled=False: (np.full((40, 2), 0.5), feats)
    )
    coords = export_projection(model, samples, tmp_path / "p.csv", 256)
    pca_var = coords.var(axis=0, ddof=1).sum()
    centered = feats - feats.mean(axis=0)
    for trial in range(100):
        basis, _ = np.linalg.qr(np.random.default_rng(trial).normal(size=(5, 2)))
        other = (centered @ basis).var(axis=0, ddof=1).sum()
        assert pca_var >= other - 1e-9


def test_evaluate_model_smoke(tiny_cfg, tiny_data):
    spec = TaskSpec(source="S", target="F", ablation="w-PL")
    outcome = run_seed(tiny_cfg, tiny_data, spec, seed=0)
    metrics = evaluate_model(outcome.final_model, tiny_data.datasets["F"].val, tiny_cfg.train.eval_batch_size)
    assert metrics.n == 8


def test_precomputed_feature_pipeline_end_to_end(tiny_cfg, tiny_data, tmp_path):
    """Pregenerated datasets plus an external feature store drive a full task."""
    import numpy as np

    from stegadapt.corpus import dataset_to_jsonl
    from feature_store import save_precomputed

    d_h = 8
    rng = np.random.default_rng(0)
    store = {}
    dataset_dirs = {}
    for tag, ds in tiny_data.datasets.items():
        directory = tmp_path / tag
        directory.mkdir()
        dataset_to_jsonl(ds, directory / "samples.jsonl", directory / "splits.jsonl")
        dataset_dirs[tag] = str(directory)
        for sample in ds.train + ds.val + ds.test:
            offset = 0.5 if sample.label == 1 else -0.5
            store[sample.id] = rng.normal(offset, 0.3, size=(len(sample.tokens), d_h))
    features_path = tmp_path / "features.jsonl"
    save_precomputed(store, d_h=d_h, path=features_path)

    cfg = config_from_dict(
        {
            "data": {"dataset_dirs": dataset_dirs},
            "encoder": {"kind": "precomputed", "d_h": d_h, "features_path": str(features_path)},
            "head": {"hidden": 4},
            "train": {"lr": 0.01, "batch_size": 8, "pretrain_epochs": 3, "finetune_rounds": 1},
            "schedule": {"p": 0.5},
            "eval": {"seeds": [0]},
        }
    )
    data = prepare_data(cfg)
    assert data.store is not None and len(data.store) == len(store)
    result = run_task(cfg, TaskSpec(source="S", target="F"), data=data, seeds=[0])
    # Linearly separated synthetic features make this trivially learnable.
    assert result.mean_acc > 0.9


# ---------------------------------------------------------------------------
# atomic text artifacts
# ---------------------------------------------------------------------------


def _csv_row(acc):
    row = dict(source="S", target="F", bpw=1, coding="flc", variant="none", seed=0, acc=acc, f1=acc)
    return {**row, "tp": 1, "fp": 0, "tn": 1, "fn": 0, "n": 2}


def _write_csv(out_dir, acc):
    write_rows_csv([_csv_row(acc)], out_dir / "rows.csv")
    return out_dir / "rows.csv"


def _write_markdown(out_dir, acc):
    result = TaskResult(TaskSpec(source="S", target="F"), [_csv_row(acc)], acc, 0.0, acc, 0.0)
    write_markdown_summary({"full": {("S", "F"): result}}, out_dir / "summary.md", "demo")
    return out_dir / "summary.md"


def _write_projection(out_dir, acc):
    export_projection(_projection_model(seed=int(acc * 100)), _id_samples(5), out_dir / "p.csv", 256)
    return out_dir / "p.csv"


def _write_stage_log(out_dir, acc):
    result = TrainResult(_projection_model(), [{"epoch": 0, "val_acc": acc}], None, None)
    _save_stage(out_dir, TaskSpec(source="S", target="F"), 0, "pretrain", result)
    return out_dir / "runs" / "S__F" / "none" / "seed0" / "pretrain_log.jsonl"


class _FailsPartway:
    """A file that takes half of the first write, then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("write", [_write_csv, _write_markdown, _write_projection, _write_stage_log])
def test_interrupted_artifact_write_keeps_the_old_file(write, tmp_path, monkeypatch):
    path = write(tmp_path, 0.5)
    before = path.read_bytes()
    real_open = builtins.open

    def open_failing(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if mode[0] in "wx" and Path(file).name.startswith(path.name):
            return _FailsPartway(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_failing)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, 0.25)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
