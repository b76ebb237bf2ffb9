from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegadapt.cli import main


@pytest.fixture()
def workspace(tmp_path, tiny_config_dict):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config_dict, indent=2))
    return tmp_path, config_path


def _run(config_path, out_dir, *argv):
    return main([*argv, "-c", str(config_path), "--out-dir", str(out_dir)])


TASK = ("--source", "S", "--target", "F", "--seed", "0")


def _with_train(tmp_path, tiny_config_dict, **train):
    """The tiny config with ``train`` keys overridden, written to a file."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_config_dict, "train": {**tiny_config_dict["train"], **train}}))
    return config


def test_gen_data_writes_cache(workspace, capsys):
    tmp, config = workspace
    assert _run(config, tmp / "out", "gen-data") == 0
    printed = capsys.readouterr().out
    assert "domain S" in printed and "domain F" in printed
    cache = list((tmp / "out" / "data").glob("*/COMPLETE"))
    assert len(cache) == 1


def test_gen_data_reports_an_error_from_a_forked_domain(workspace, capsys, monkeypatch):
    from stegadapt import experiment
    from stegadapt.errors import CapacityError

    real_build = experiment.build_domain_dataset

    def build(texts, tag, *args):
        if tag == "S":  # the second tag, generated in the forked child, which inherits this patch
            raise CapacityError(f"no room for domain {tag} in process {os.getpid()}")
        return real_build(texts, tag, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(experiment, "build_domain_dataset", build)
    tmp, config = workspace
    assert _run(config, tmp / "out", "gen-data") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no room for domain S in process ")
    assert int(err.split()[-1]) != os.getpid()  # raised in the child and unpickled here
    assert not list((tmp / "out").rglob("COMPLETE"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pretrain_adapt_evaluate_chain(workspace):
    tmp, config = workspace
    out = tmp / "out"
    assert _run(config, out, "pretrain", "--source", "S", "--target", "F", "--seed", "0") == 0
    run_dir = out / "runs" / "S__F" / "none" / "seed0"
    assert (run_dir / "pretrain.npz").exists()
    assert (run_dir / "pretrain_log.jsonl").exists()

    assert _run(config, out, "adapt", "--source", "S", "--target", "F", "--seed", "0") == 0
    assert (run_dir / "adapted.npz").exists()
    rounds = [json.loads(l) for l in (run_dir / "rounds.jsonl").read_text().splitlines()]
    assert [r["round"] for r in rounds] == [1, 2]

    assert _run(config, out, "evaluate", "--source", "S", "--target", "F", "--seed", "0") == 0
    csv_path = out / "results" / "evaluate_S__F_none_test.csv"
    assert csv_path.exists()
    header, row = csv_path.read_text().splitlines()
    assert header.startswith("source,target")
    assert row.startswith("S,F,1,flc,none,0,")


def test_evaluate_reruns_byte_identical(workspace):
    tmp, config = workspace
    out = tmp / "out"
    _run(config, out, "pretrain", "--source", "S", "--target", "F", "--seed", "0")
    _run(config, out, "evaluate", "--source", "S", "--target", "F", "--seed", "0")
    csv_path = out / "results" / "evaluate_S__F_none_test.csv"
    first = csv_path.read_bytes()
    _run(config, out, "evaluate", "--source", "S", "--target", "F", "--seed", "0")
    assert csv_path.read_bytes() == first


def test_matrix_reruns_byte_identical(workspace):
    tmp, config = workspace
    out_a, out_b = tmp / "a", tmp / "b"
    assert _run(config, out_a, "matrix", "--seed", "0") == 0
    assert _run(config, out_b, "matrix", "--seed", "0") == 0
    csv_a = (out_a / "results" / "matrix.csv").read_bytes()
    csv_b = (out_b / "results" / "matrix.csv").read_bytes()
    assert csv_a == csv_b
    md_a = (out_a / "results" / "matrix.md").read_bytes()
    assert md_a == (out_b / "results" / "matrix.md").read_bytes()
    rows = csv_a.decode().splitlines()
    assert len(rows) == 3  # header + S=>F + F=>S


def test_ablate_emits_four_variants(workspace):
    tmp, config = workspace
    out = tmp / "out"
    assert _run(config, out, "ablate", "--source", "S", "--target", "F", "--seed", "0") == 0
    csv_path = out / "results" / "ablation_S__F.csv"
    lines = csv_path.read_text().splitlines()
    variants = [line.split(",")[4] for line in lines[1:]]
    assert variants == ["none", "w-PL", "w-FF", "w-SLB"]
    md = (out / "results" / "ablation_S__F.md").read_text()
    assert md.count("| w-") == 2 or "w-PL" in md


def test_export_features_writes_projection(workspace):
    tmp, config = workspace
    out = tmp / "out"
    _run(config, out, "pretrain", "--source", "S", "--target", "F", "--seed", "0")
    assert (
        _run(config, out, "export-features", "--source", "S", "--target", "F", "--seed", "0", "--split", "val")
        == 0
    )
    proj = out / "results" / "projection_F_val.csv"
    lines = proj.read_text().splitlines()
    assert lines[0] == "id,x,y,label"
    assert len(lines) == 9  # 4 cover + 4 stego


def test_export_features_predicts_in_eval_batch_size(tmp_path, monkeypatch, tiny_config_dict):
    """Eight validation samples at ``train.eval_batch_size`` 3 go through the model as 3 + 3 + 2.

    One CPU keeps every batch in this process, where the patch sees it.
    """
    from stegadapt.model import Classifier

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    config = _with_train(tmp_path, tiny_config_dict, eval_batch_size=3)
    out = tmp_path / "out"
    assert _run(config, out, "pretrain", *TASK) == 0
    batches = []
    real_forward = Classifier.forward_samples

    def forward(self, samples, *args, **kwargs):
        batches.append(len(samples))
        return real_forward(self, samples, *args, **kwargs)

    monkeypatch.setattr(Classifier, "forward_samples", forward)
    assert _run(config, out, "export-features", *TASK, "--split", "val") == 0
    assert batches == [3, 3, 2]


def test_pretrain_with_zero_epochs_reports_no_score(tmp_path, capsys, tiny_config_dict):
    config = _with_train(tmp_path, tiny_config_dict, pretrain_epochs=0)
    assert _run(config, tmp_path / "out", "pretrain", *TASK) == 0
    assert "seed 0: best source-val ACC n/a at epoch None" in capsys.readouterr().out


def test_missing_config_reports_error(tmp_path, capsys):
    code = main(["gen-data", "-c", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-is-a-directory", "corpus-is-a-directory", "out-dir-is-a-file"])
def test_path_of_the_wrong_kind_reports_error(tmp_path, capsys, tiny_config_dict, case):
    data = tiny_config_dict["data"]
    if case == "corpus-is-a-directory":
        data = {**data, "domains": {**data["domains"], "S": str(tmp_path)}}
    config, out, named = tmp_path / "config.json", tmp_path / "out", tmp_path
    config.write_text(json.dumps({**tiny_config_dict, "data": data}))
    if case == "config-is-a-directory":
        config = tmp_path
    elif case == "out-dir-is-a-file":
        out = named = tmp_path / "README.md"
        out.write_text("not a directory\n")
    assert main(["gen-data", "-c", str(config), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(named) in err


def test_unknown_config_key_reports_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"domains": {"A": "x"}, "typo_key": 1}}))
    code = main(["gen-data", "-c", str(config), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"data": 3}, "'data'"),
        ({"data": {"domains": {"A": "x"}, "train": "many"}}, "'train'"),
        ({"data": {"domains": {"A": "x"}}, "eval": {"seeds": 3}}, "'seeds'"),
        ({"data": {"domains": {"A": "x"}}, "encoder": {"freeze_policy": "after_pretrain"}}, "'freeze_policy'"),
        ({"data": {"domains": {"A": "x"}}, "schedule": {"p": 0.1, "reestimate": True}}, "'reestimate'"),
        ({"data": {"domains": {"A": "x"}}, "train": {"selection_metric": "acc"}}, "'selection_metric'"),
        ({"data": {"domains": {"A": "x"}}, "encoder": {"kind": "precomputed"}}, "needs encoder.features_path"),
        ({"data": {"domains": {"A": "x"}}, "encoder": {"features_path": "f.jsonl"}}, "encoder.features_path is only"),
    ],
)
def test_mistyped_config_reports_error(tmp_path, capsys, raw, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main(["gen-data", "-c", str(config), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("pretrain", "--source", "X", "--target", "F"),
        ("pretrain", "--source", "S", "--target", "X"),
        ("adapt", "--source", "S", "--target", "X"),
        ("evaluate", "--source", "S", "--target", "X"),
        ("ablate", "--source", "S", "--target", "X"),
        ("export-features", "--source", "S", "--target", "F", "--domain", "X"),
    ],
)
def test_unknown_domain_tag_reports_error(workspace, capsys, argv):
    """The tag is checked before any data is prepared or checkpoint read, so ``--out-dir`` is never created."""
    tmp, config = workspace
    out = tmp / "out"
    assert _run(config, out, *argv, "--seed", "0") == 1
    err = capsys.readouterr().err
    assert err == "error: unknown domain tag 'X'; the config defines ['F', 'S']\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value, argv, message",
    [
        ("eval", "seeds", [-1], (), "eval.seeds must be distinct and >= 0, got [-1]"),
        ("eval", "seeds", [0, 0], (), "eval.seeds must be distinct and >= 0, got [0, 0]"),
        ("data", "seed", -3, (), "data.seed must be >= 0, got -3"),
        ("eval", "seeds", [0], ("--seed", "-1"), "eval.seeds must be distinct and >= 0, got [-1]"),
    ],
    ids=["negative-eval-seed", "repeated-eval-seed", "negative-data-seed", "negative-seed-flag"],
)
def test_bad_seed_fails_at_load_and_writes_nothing(
    tmp_path, capsys, tiny_config_dict, section, key, value, argv, message
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_config_dict, section: {**tiny_config_dict[section], key: value}}))
    out = tmp_path / "out"
    assert _run(config, out, "pretrain", "--source", "S", "--target", "F", *argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_data_takes_no_seed_flag(workspace, capsys):
    """``gen-data``'s data follows ``data.seed``, so a ``--seed`` there is an unknown flag."""
    tmp, config = workspace
    with pytest.raises(SystemExit) as caught:
        _run(config, tmp / "out", "gen-data", "--seed", "99")
    assert caught.value.code == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_malformed_feature_store_reports_error(tmp_path, capsys, tiny_config_dict):
    features = tmp_path / "features.jsonl"
    features.write_text('{"d_h": 12}\n{"id": "S-cover-00000", "h": 5}\n')
    config = tmp_path / "config.json"
    encoder = {**tiny_config_dict["encoder"], "kind": "precomputed", "features_path": str(features)}
    config.write_text(json.dumps({**tiny_config_dict, "encoder": encoder}))
    assert _run(config, tmp_path / "out", "gen-data") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["truncated", "text", "version-1"])
def test_unreadable_checkpoint_reports_error(workspace, capsys, kind):
    import numpy as np

    from stegadapt.encoder import EncoderConfig
    from stegadapt.head import HeadConfig
    from stegadapt.model import Classifier, save_checkpoint

    tmp, config = workspace
    ckpt = tmp / "bad.npz"
    model = Classifier.build(EncoderConfig(d_h=12), HeadConfig(d_h=12, hidden=6), seed=0, vocab_size=20)
    save_checkpoint(ckpt, model)
    if kind == "truncated":
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: len(data) // 2])
    elif kind == "text":
        ckpt.write_text("not a checkpoint\n")
    else:
        # Version 1 stored each Bi-LSTM direction's tensors apart.
        with np.load(ckpt) as archive:
            arrays = dict(archive)
        meta = {**json.loads(bytes(arrays["meta"]).decode()), "version": 1}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
    code = _run(config, tmp / "out", "evaluate", "--source", "S", "--target", "F", "--seed", "0", "--checkpoint", str(ckpt))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(ckpt) in err and "Traceback" not in err
    assert kind != "version-1" or "unsupported checkpoint version 1" in err


def test_dataset_dirs_text_records_use_the_shared_vocab(tmp_path, tiny_config_dict):
    """``text`` records are encoded with the ``vocab.json`` that one dataset directory holds, as the ids were."""
    from stegadapt.config import config_from_dict
    from stegadapt.corpus import dataset_to_jsonl
    from stegadapt.experiment import prepare_data

    data = prepare_data(config_from_dict(tiny_config_dict))
    logs = {}
    for form in ("tokens", "text"):
        dirs = {}
        for tag, ds in data.datasets.items():
            directory = tmp_path / form / tag
            directory.mkdir(parents=True)
            dataset_to_jsonl(ds, directory / "samples.jsonl", directory / "splits.jsonl")
            if tag == "S":
                (directory / "vocab.json").write_text(data.vocab.to_json() + "\n")
            if form == "text":
                records = [json.loads(line) for line in (directory / "samples.jsonl").read_text().splitlines()]
                for rec in records:
                    rec["text"] = " ".join(data.vocab.id_to_token[i] for i in rec.pop("tokens"))
                (directory / "samples.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
            dirs[tag] = str(directory)
        config = tmp_path / f"{form}.json"
        config.write_text(json.dumps({**tiny_config_dict, "data": {"dataset_dirs": dirs}}))
        out = tmp_path / f"out_{form}"
        assert _run(config, out, "pretrain", "--source", "S", "--target", "F", "--seed", "0") == 0
        logs[form] = (out / "runs" / "S__F" / "none" / "seed0" / "pretrain_log.jsonl").read_bytes()
    assert logs["text"] == logs["tokens"]


def test_text_dataset_dir_without_vocab_stops_the_builtin_encoder(tmp_path, capsys, tiny_config_dict):
    """Text records with no ``vocab.json``, beside generated domains: the builtin encoder
    refuses them before training, naming the directory, and a feature store still reads them."""
    import numpy as np

    from feature_store import save_precomputed
    from stegadapt.config import config_from_dict
    from stegadapt.corpus import dataset_to_jsonl
    from stegadapt.experiment import prepare_data

    data = prepare_data(config_from_dict(tiny_config_dict))
    directory = tmp_path / "X"
    dataset_to_jsonl(data.datasets["S"], directory / "samples.jsonl", directory / "splits.jsonl")
    records = [json.loads(line) for line in (directory / "samples.jsonl").read_text().splitlines()]
    for rec in records:
        rec["text"] = " ".join(data.vocab.id_to_token[i] for i in rec.pop("tokens"))
    (directory / "samples.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    sections = {**tiny_config_dict, "data": {**tiny_config_dict["data"], "dataset_dirs": {"X": str(directory)}}}
    config = tmp_path / "builtin.json"
    config.write_text(json.dumps(sections))
    task = ("--source", "X", "--target", "F", "--seed", "0")
    assert _run(config, tmp_path / "out", "pretrain", *task) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {directory}: ") and "vocab.json" in err
    assert not (tmp_path / "out" / "runs").exists()

    d_h = tiny_config_dict["encoder"]["d_h"]
    rng = np.random.default_rng(0)
    samples = [s for ds in data.datasets.values() for s in ds.train + ds.val + ds.test]
    save_precomputed({s.id: rng.normal(size=(len(s.tokens), d_h)) for s in samples}, d_h, tmp_path / "features.jsonl")
    encoder = {"kind": "precomputed", "d_h": d_h, "features_path": str(tmp_path / "features.jsonl")}
    config = tmp_path / "precomputed.json"
    config.write_text(json.dumps({**sections, "encoder": encoder}))
    assert _run(config, tmp_path / "out", "pretrain", *task) == 0
    assert (tmp_path / "out" / "runs" / "X__F" / "none" / "seed0" / "pretrain.npz").exists()


def test_id_dataset_dir_without_vocab_beside_a_generated_domain_reports_error(tmp_path, capsys, tiny_config_dict):
    """Token ids with no ``vocab.json``, beside a generated domain whose vocabulary would read them as other
    words, stop the run before anything is written; with the ids' ``vocab.json`` beside them it runs."""
    from stegadapt.config import config_from_dict
    from stegadapt.corpus import dataset_to_jsonl
    from stegadapt.experiment import prepare_data

    data = prepare_data(config_from_dict(tiny_config_dict))
    directory = tmp_path / "X"
    dataset_to_jsonl(data.datasets["S"], directory / "samples.jsonl", directory / "splits.jsonl")
    domains = {"F": tiny_config_dict["data"]["domains"]["F"]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **tiny_config_dict, "data": {**tiny_config_dict["data"], "domains": domains, "dataset_dirs": {"X": str(directory)}},
    }))
    task = ("--source", "X", "--target", "F", "--seed", "0")
    assert _run(config, tmp_path / "out", "pretrain", *task) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {directory}: token ids need a vocab.json") and "Traceback" not in err
    assert not (tmp_path / "out").exists()

    (directory / "vocab.json").write_text(data.vocab.to_json() + "\n")
    assert _run(config, tmp_path / "out", "pretrain", *task) == 0
    assert (tmp_path / "out" / "runs" / "X__F" / "none" / "seed0" / "pretrain.npz").exists()


def test_export_features_quotes_sample_ids_holding_a_comma_or_newline(tmp_path, tiny_config_dict):
    """``dataset_dirs`` ids ``a,b`` and ``c\\nd`` stay one CSV field each: every row reads back as 4 fields."""
    import csv

    from stegadapt.config import config_from_dict
    from stegadapt.corpus import dataset_to_jsonl
    from stegadapt.experiment import prepare_data

    data = prepare_data(config_from_dict(tiny_config_dict))
    renamed = dict(zip((s.id for s in data.datasets["F"].val[:2]), ("a,b", "c\nd")))
    dirs = {}
    for tag, ds in data.datasets.items():
        directory = tmp_path / tag
        dataset_to_jsonl(ds, directory / "samples.jsonl", directory / "splits.jsonl")
        (directory / "vocab.json").write_text(data.vocab.to_json() + "\n")
        for name in ("samples.jsonl", "splits.jsonl"):
            records = [json.loads(line) for line in (directory / name).read_text().splitlines()]
            for rec in records:
                rec["id"] = renamed.get(rec["id"], rec["id"])
            (directory / name).write_text("".join(json.dumps(r) + "\n" for r in records))
        dirs[tag] = str(directory)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_config_dict, "data": {"dataset_dirs": dirs}}))
    out = tmp_path / "out"
    assert _run(config, out, "pretrain", *TASK) == 0
    assert _run(config, out, "export-features", *TASK, "--split", "val") == 0
    with open(out / "results" / "projection_F_val.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "x", "y", "label"]
    assert len(rows) == 1 + len(data.datasets["F"].val)
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows[1:3]] == ["a,b", "c\nd"]


def test_path_like_domain_tag_writes_nothing_outside_out_dir(tmp_path, capsys, tiny_config_dict):
    """The tag ``../../escape`` would put its domain's cache and its run directory outside ``--out-dir``;
    the config refuses it, so ``gen-data`` and ``pretrain`` end in ``error:`` having written nothing."""
    sea = tiny_config_dict["data"]["domains"]["S"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **tiny_config_dict, "data": {**tiny_config_dict["data"], "domains": {"../../escape": sea, "F": sea}},
    }))
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "out" / "a"
    assert _run(config, out, "gen-data") == 1
    assert _run(config, out, "pretrain", "--source", "../../escape", "--target", "F", "--seed", "0") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: data domain tag '../../escape' must match [A-Za-z0-9]+([-_][A-Za-z0-9]+)*"] * 2
    assert sorted(tmp_path.rglob("*")) == before


def test_evaluate_variant_outside_the_pattern_rejected(tmp_path, capsys, monkeypatch, tiny_config_dict):
    """``--variant`` names a checkpoint directory and a result file, so a path-like one is refused before any
    data, checkpoint or result file is touched; every ablation name passes the same check."""
    from stegadapt import cli
    from stegadapt.experiment import ABLATIONS
    from stegadapt.stegogen import DOMAIN_TAG

    assert all(DOMAIN_TAG.fullmatch(name) for name in ABLATIONS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(tiny_config_dict))
    out = tmp_path / "a" / "b" / "out"
    assert _run(config, out, "pretrain", *TASK) == 0
    ckpt = next(out.rglob("pretrain.npz"))

    def untouched(*args, **kwargs):
        raise AssertionError("read data or a checkpoint")

    monkeypatch.setattr(cli, "prepare_data", untouched)
    monkeypatch.setattr(cli, "load_checkpoint", untouched)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    for variant in ("x/../../../../esc", "..", "a/b", "", "w PL"):
        for checkpoint in (("--checkpoint", str(ckpt)), ()):
            assert _run(config, out, "evaluate", *TASK, "--variant", variant, *checkpoint) == 1
            err = capsys.readouterr().err
            assert err == f"error: --variant {variant!r} must match {DOMAIN_TAG.pattern}\n"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


_PATH_LIKE = ("../../escape", "a/b", "..", ".", "", "x y", "S/../F", "/abs")
_ODD_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.5, 0.0, 0.3, 1e300])
_MUTANTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    _ODD_FLOATS,
    st.sampled_from(_PATH_LIKE),
    st.lists(st.integers(-2, 30), max_size=3),
    st.fixed_dictionaries({"k": st.integers(0, 3)}),
)


def _same_type(value):
    """Values of ``value``'s own JSON type, in and out of its key's range."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-3, 30)
    if isinstance(value, float):
        return _ODD_FLOATS
    if isinstance(value, str):
        return st.sampled_from(("flc", "vlc", *_PATH_LIKE))
    if isinstance(value, list):
        return st.lists(st.integers(-2, 30), max_size=3)
    return _MUTANTS


@st.composite
def _mutated_configs(draw, base):
    """``base`` with one or two mutations: a key's value, a whole section or a domain's tag."""
    raw = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        section = draw(st.sampled_from([*sorted(raw), "data", "data", "data"]))  # most knobs are data's
        kind = draw(st.sampled_from(["value"] * 4 + ["section", "tag"]))
        if kind == "section":
            raw[section] = draw(_MUTANTS)
        elif kind == "tag" and isinstance(raw.get("data"), dict) and isinstance(raw["data"].get("domains"), dict):
            domains = raw["data"]["domains"]
            if domains:
                old = draw(st.sampled_from(sorted(domains)))
                domains[draw(st.sampled_from(_PATH_LIKE))] = domains.pop(old)
        elif isinstance(raw[section], dict) and raw[section]:
            key = draw(st.sampled_from(sorted(raw[section])))
            raw[section][key] = draw(st.one_of(_same_type(raw[section][key]), _MUTANTS))
    return raw


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_config_gen_data_exits_cleanly_inside_out_dir(tiny_config_dict, data):
    """A mutated config (wrong types, NaN and infinity, out-of-range values, path-like tags) either
    generates (exit 0) or ends in ``error:`` and exit 1; no file appears or changes outside ``--out-dir``."""
    raw = data.draw(_mutated_configs(tiny_config_dict))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        work, out = root / "in" / "work", root / "in" / "out"
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(raw))
        before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        err = io.StringIO()
        os.chdir(work)  # relative paths in the config resolve inside the sandbox
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["gen-data", "-c", str(config), "--out-dir", str(out)])
        finally:
            os.chdir(cwd)
        assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: ")), err.getvalue()
        after = {path: path.read_bytes() for path in root.rglob("*") if path.is_file() and out not in path.parents}
        assert after == before


@pytest.mark.parametrize("payload", ["{}", "[]", '{"tokens": 5}'], ids=["empty-object", "list", "tokens-not-a-list"])
def test_malformed_vocab_json_reports_error(tmp_path, capsys, payload):
    directory = tmp_path / "H"
    directory.mkdir()
    (directory / "samples.jsonl").write_text('{"id": "H0", "tokens": [4, 5], "label": "cover", "domain": "H"}\n')
    (directory / "splits.jsonl").write_text('{"id": "H0", "split": "train", "role": "cover"}\n')
    (directory / "vocab.json").write_text(payload)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"dataset_dirs": {"H": str(directory)}}}))
    code = main(["gen-data", "-c", str(config), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "vocab file" in err and "Traceback" not in err


_GOOD_SPLIT = '{"id": "H0", "split": "train", "role": "cover"}\n'


@pytest.mark.parametrize(
    "key, value",
    [("bpw", 9), ("coding", "zzz"), ("payload_bits", [40, 4]), ("lm_order", 0), ("alpha", float("nan")), ("train", -3)],
    ids=["bpw", "coding", "payload_bits", "lm_order", "alpha", "train"],
)
def test_out_of_range_data_knob_reports_error_without_generation(tmp_path, capsys, key, value):
    """A ``dataset_dirs``-only config generates nothing, yet its generation knobs are checked at load."""
    directory = tmp_path / "H"
    directory.mkdir()
    (directory / "samples.jsonl").write_text('{"id": "H0", "tokens": [4, 5], "label": "cover", "domain": "H"}\n')
    (directory / "splits.jsonl").write_text(_GOOD_SPLIT)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"dataset_dirs": {"H": str(directory)}, key: value}}))
    code = main(["gen-data", "-c", str(config), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: data.{key} ") and "Traceback" not in err


def test_non_id_tokens_in_dataset_dirs_report_error(tmp_path, capsys):
    """A ``tokens`` list holding a float stops ``pretrain`` with the record's line, before any encoding."""
    for tag, tokens in (("H", [4, 5.5]), ("O", [4, 5])):
        directory = tmp_path / tag
        directory.mkdir()
        sample = {"id": f"{tag}0", "tokens": tokens, "label": "cover", "domain": tag}
        (directory / "samples.jsonl").write_text(json.dumps(sample) + "\n")
        (directory / "splits.jsonl").write_text(json.dumps({"id": f"{tag}0", "split": "train", "role": "cover"}) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"dataset_dirs": {tag: str(tmp_path / tag) for tag in ("H", "O")}}}))
    code = _run(config, tmp_path / "out", "pretrain", "--source", "H", "--target", "O", "--seed", "0")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "line 1:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "samples, splits, named",
    [
        ('{"id": "H0", "tokens": [4, 5], "label": "cover", "domain": "H"}\n', '{"id": "H0"}\n', "line 1:"),
        ('{"id": "H0", "tokens": [4, 5], "label": "cover", "domain": "H"}\n', "[1]\n", "line 1:"),
        ('{"id": "H0", "tokens": [4, 5], "label": "cover", "domain": "H"}\n', _GOOD_SPLIT + "{not json\n", "line 2:"),
        ("", "", "no sample records"),
    ],
    ids=["missing-keys", "not-an-object", "bad-json", "empty"],
)
def test_malformed_split_records_report_error(tmp_path, capsys, samples, splits, named):
    directory = tmp_path / "H"
    directory.mkdir()
    (directory / "samples.jsonl").write_text(samples)
    (directory / "splits.jsonl").write_text(splits)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"dataset_dirs": {"H": str(directory)}}}))
    code = main(["gen-data", "-c", str(config), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and named in err and "Traceback" not in err


def _dataset_dirs_config(tmp_path, tiny_config_dict):
    """Two ``dataset_dirs`` (H, O) of the tiny data with a shared ``vocab.json``, and a config reading them."""
    from stegadapt.config import config_from_dict
    from stegadapt.corpus import dataset_to_jsonl
    from stegadapt.experiment import prepare_data

    data = prepare_data(config_from_dict(tiny_config_dict))
    dirs = {}
    for tag, ds in zip(("H", "O"), (data.datasets["S"], data.datasets["F"])):
        directory = tmp_path / tag
        dataset_to_jsonl(ds, directory / "samples.jsonl", directory / "splits.jsonl")
        (directory / "vocab.json").write_text(data.vocab.to_json() + "\n")
        dirs[tag] = str(directory)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_config_dict, "data": {"dataset_dirs": dirs}}))
    return config


def test_dataset_dirs_with_different_vocabularies_report_error(tmp_path, capsys, tiny_config_dict):
    config = _dataset_dirs_config(tmp_path, tiny_config_dict)
    vocab_file = tmp_path / "O" / "vocab.json"
    vocab = json.loads(vocab_file.read_text())
    vocab_file.write_text(json.dumps({"tokens": vocab["tokens"] + ["lantern"]}) + "\n")
    assert _run(config, tmp_path / "out", "gen-data") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "disagree on the vocabulary" in err and "Traceback" not in err


@pytest.mark.parametrize("reader", ["samples", "splits", "vocab", "features", "corpus"])
def test_reader_error_names_its_file(tmp_path, capsys, tiny_config_dict, reader):
    """Of several input files, the error names the bad one, and the line where a reader knows it."""
    if reader in ("samples", "splits", "vocab"):
        config = _dataset_dirs_config(tmp_path, tiny_config_dict)
        bad = tmp_path / "O" / f"{reader}.{'json' if reader == 'vocab' else 'jsonl'}"
        lines = bad.read_text().splitlines(keepends=True)
        broken = {"samples": "{not json\n", "splits": '{"id": "F-cover-00000"}\n', "vocab": '{"tokens": ['}[reader]
        bad.write_text(broken if reader == "vocab" else lines[0] + broken + "".join(lines[1:]))
        named = "line 1: " if reader == "vocab" else "line 2: "
    elif reader == "features":
        bad = tmp_path / "features.jsonl"
        bad.write_text('{"d_h": 12}\n{"id": "S-cover-00000", "h": [[0.5]]}\n')
        config = tmp_path / "config.json"
        encoder = {**tiny_config_dict["encoder"], "kind": "precomputed", "features_path": str(bad)}
        config.write_text(json.dumps({**tiny_config_dict, "encoder": encoder}))
        named = "line 2: "
    else:
        bad = tmp_path / "sea.txt"
        bad.write_bytes(b"the tide held the rope .\nthe \xff mast .\n")
        domains = {**tiny_config_dict["data"]["domains"], "S": str(bad)}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**tiny_config_dict, "data": {**tiny_config_dict["data"], "domains": domains}}))
        named = "not valid UTF-8"
    assert _run(config, tmp_path / "out", "gen-data") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and named in err and "Traceback" not in err


def test_precomputed_encoder_cli_chain(tmp_path, monkeypatch, tiny_config_dict):
    """pretrain, adapt, evaluate and export-features on a feature store.

    No checkpoint holds an embedding table, training leaves the loaded store's
    arrays as written, and a rerun writes byte-identical result files and logs.
    """
    import numpy as np

    import stegadapt.experiment as experiment
    from feature_store import save_precomputed
    from stegadapt.config import config_from_dict

    d_h = tiny_config_dict["encoder"]["d_h"]
    rng = np.random.default_rng(0)
    store = {}
    for ds in experiment.prepare_data(config_from_dict(tiny_config_dict)).datasets.values():
        for sample in ds.train + ds.val + ds.test:
            store[sample.id] = rng.normal(0.5 if sample.label == 1 else -0.5, 0.3, size=(len(sample.tokens), d_h))
    features = tmp_path / "features.jsonl"
    save_precomputed(store, d_h, features)
    config = tmp_path / "config.json"
    encoder = {"kind": "precomputed", "d_h": d_h, "features_path": str(features)}
    config.write_text(json.dumps({**tiny_config_dict, "encoder": encoder}))

    loaded = []
    real_load = experiment.load_precomputed

    def load(path):
        result = real_load(path)
        loaded.append(result[0])
        return result

    monkeypatch.setattr(experiment, "load_precomputed", load)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for command in ("pretrain", "adapt", "evaluate", "export-features"):
            assert _run(config, out, command, *TASK) == 0
        run_dir = out / "runs" / "S__F" / "none" / "seed0"
        for stage in ("pretrain", "adapted"):
            with np.load(run_dir / f"{stage}.npz") as archive:
                assert "encoder.embedding" not in archive.files
        files = sorted((out / "results").iterdir()) + sorted(run_dir.glob("*.jsonl"))
        outputs.append({path.relative_to(out): path.read_bytes() for path in files})
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]
    assert len(loaded) == 8
    for seen in loaded:
        assert seen.keys() == store.keys() and all(np.array_equal(seen[sid], store[sid]) for sid in store)
