from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegadapt.corpus import (
    BOS,
    COVER,
    EOS,
    PAD,
    STEGO,
    UNK,
    UNLABELED,
    DomainDataset,
    TextSample,
    Vocab,
    atomic_open,
    build_vocab,
    dataset_from_jsonl,
    dataset_to_jsonl,
    load_corpus,
    make_splits,
    save_corpus,
    strip_labels,
    tokenize,
    write_split_manifest,
)
from stegadapt.errors import CapacityError, CorpusError, IntegrityError
from oracles import tokenize_by_char


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_detaches_punctuation():
    assert tokenize("Hello, world") == ["hello", ",", "world"]


def test_tokenize_empty_text():
    assert tokenize("") == []


def test_tokenize_case_fold_and_whitespace_collapse():
    assert tokenize("A  a") == ["a", "a"]


def test_tokenize_multiple_punctuation_chars_split_individually():
    assert tokenize("wait... what?!") == ["wait", ".", ".", ".", "what", "?", "!"]


@given(st.text(max_size=80))
def test_tokenize_join_idempotent(text):
    toks = tokenize(text)
    assert tokenize(" ".join(toks)) == toks


# Letters with marks, superscript and Arabic-Indic digits, a Roman numeral,
# apostrophes and abbreviations, case folds that grow, and chunks that mix scripts.
_TOKENIZE_CASES = [
    "naïve", "x²", "٣٤", "Ⅻ", "don't", "e.g.", "Straße", "İstanbul", "ǅemal", "half½",
    "abc١٢٣", "日本語。", "Ⅻx²٣naïve", "Москва-2024", "x²-y", "αβγ٣, Ⅻ.", "ﬁne",
]


@pytest.mark.parametrize("text", _TOKENIZE_CASES)
def test_tokenize_matches_the_char_by_char_reference_on_named_cases(text):
    assert tokenize(text) == tokenize_by_char(text)


_WORDS = st.text(st.characters(whitelist_categories=("L", "N", "P", "M")), min_size=1, max_size=8)


@given(st.one_of(st.text(max_size=80), st.lists(_WORDS, max_size=12).map(" ".join)))
def test_tokenize_matches_the_char_by_char_reference(text):
    assert tokenize(text) == tokenize_by_char(text)


# ---------------------------------------------------------------------------
# build_vocab
# ---------------------------------------------------------------------------


def test_build_vocab_frequency_order():
    vocab = build_vocab([["a", "a", "b"]], min_freq=1)
    assert vocab.token_to_id == {"<pad>": PAD, "<unk>": UNK, "<bos>": BOS, "<eos>": EOS, "a": 4, "b": 5}


def test_build_vocab_threshold_drops_rare_tokens():
    vocab = build_vocab([["a", "a", "b"]], min_freq=2)
    assert "b" not in vocab.token_to_id
    assert vocab.encode(["b"])[0] == UNK


def test_build_vocab_tie_break_lexicographic():
    vocab = build_vocab([["y", "x"]], min_freq=1)
    assert vocab.encode(["x"])[0] < vocab.encode(["y"])[0]


def test_build_vocab_rejects_bad_min_freq():
    with pytest.raises(ValueError):
        build_vocab([["a"]], min_freq=0)


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(ValueError):
        build_vocab([], min_freq=1)


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8), min_size=1, max_size=12))
def test_vocab_roundtrip_identity(texts):
    vocab = build_vocab(texts, min_freq=1)
    for text in texts:
        assert [vocab.id_to_token[i] for i in vocab.encode(text)] == text


def test_vocab_json_roundtrip():
    vocab = build_vocab([["a", "b", "a"]], min_freq=1)
    again = Vocab.from_json(vocab.to_json())
    assert again.id_to_token == vocab.id_to_token


@pytest.mark.parametrize("payload", ["{}", "[]", '{"tokens": 5}', '{"tokens": ["<pad>", "<unk>", "<bos>", "<eos>", [1]]}'])
def test_vocab_from_json_rejects_other_shapes(payload):
    with pytest.raises(CorpusError, match="vocab file"):
        Vocab.from_json(payload)


# ---------------------------------------------------------------------------
# TextSample invariants
# ---------------------------------------------------------------------------


def test_sample_requires_nonempty_tokens():
    with pytest.raises(ValueError):
        TextSample(id="x", tokens=(), label=COVER, domain="M")


def test_sample_bpw_iff_stego():
    with pytest.raises(ValueError):
        TextSample(id="x", tokens=(4,), label=COVER, domain="M", bpw=1)
    with pytest.raises(ValueError):
        TextSample(id="x", tokens=(4,), label=STEGO, domain="M")
    TextSample(id="x", tokens=(4,), label=STEGO, domain="M", bpw=3)


def test_strip_labels_clears_label_and_bpw():
    s = TextSample(id="x", tokens=(4, 5), label=STEGO, domain="M", bpw=2)
    (u,) = strip_labels([s])
    assert u.label is UNLABELED and u.bpw is None and u.tokens == s.tokens


# ---------------------------------------------------------------------------
# load_corpus / save_corpus
# ---------------------------------------------------------------------------


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_corpus_maps_fields(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [json.dumps({"id": "m1", "text": "a b", "label": "cover", "domain": "M"})])
    (sample,) = load_corpus(path)
    assert sample.label == COVER
    assert sample.tokens == ("a", "b")
    assert sample.domain == "M"


def test_load_corpus_missing_domain_is_parse_error(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [json.dumps({"id": "m1", "text": "a b"})])
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


def test_load_corpus_duplicate_id_is_integrity_error(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = json.dumps({"id": "m1", "text": "a", "domain": "M"})
    _write_lines(path, [rec, rec])
    with pytest.raises(IntegrityError, match="m1"):
        load_corpus(path)


def test_load_corpus_malformed_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [json.dumps({"id": "a", "text": "x", "domain": "M"}), "{oops"])
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


@pytest.mark.parametrize(
    "record",
    [
        {"id": "a", "text": 5, "domain": "M"},
        {"id": "a", "tokens": 5, "domain": "M"},
        {"id": "a", "tokens": [4], "label": "stego", "bpw": "2", "domain": "M"},
        {"id": "a", "tokens": [4], "label": ["cover"], "domain": "M"},
        {"id": "a", "tokens": [4, 5.5], "domain": "M"},
        {"id": "a", "tokens": [True, 5], "domain": "M"},
        {"id": "a", "tokens": ["x", 3], "domain": "M"},
        {"id": "a", "tokens": [5, 6], "label": "stego", "bpw": True, "domain": "M"},
    ],
    ids=[
        "text-not-a-string",
        "tokens-not-a-list",
        "bpw-not-an-int",
        "label-not-a-string",
        "tokens-float",
        "tokens-bool",
        "tokens-mixed",
        "bpw-bool",
    ],
)
def test_load_corpus_mistyped_field_names_line(tmp_path, record):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [json.dumps({"id": "ok", "text": "x", "domain": "M"}), json.dumps(record)])
    for vocab in (None, build_vocab([["x"]], min_freq=1)):
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, vocab=vocab)


def test_load_corpus_unlabeled_and_vocab_encoding(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(
        path,
        [
            json.dumps({"id": "a", "text": "a b zz", "domain": "M"}),
            json.dumps({"id": "b", "tokens": [4, 5], "label": "stego", "domain": "M", "bpw": 2}),
            json.dumps({"id": "c", "tokens": ["b", "zz", "a"], "label": "cover", "domain": "M"}),
        ],
    )
    vocab = build_vocab([["a", "b"]], min_freq=1)
    first, second, third = load_corpus(path, vocab=vocab)
    assert first.label is UNLABELED
    assert first.tokens == (vocab.encode(["a"])[0], vocab.encode(["b"])[0], UNK)
    assert second.tokens == (4, 5) and second.bpw == 2
    assert third.tokens == (vocab.encode(["b"])[0], UNK, vocab.encode(["a"])[0])


def test_save_load_roundtrip(tmp_path):
    samples = [
        TextSample(id="a", tokens=(4, 5), label=COVER, domain="M"),
        TextSample(id="b", tokens=(5, 6, 7), label=STEGO, domain="M", bpw=1),
        TextSample(id="c", tokens=(4,), label=UNLABELED, domain="M"),
    ]
    path = tmp_path / "c.jsonl"
    save_corpus(samples, path)
    assert load_corpus(path) == samples


# ---------------------------------------------------------------------------
# make_splits
# ---------------------------------------------------------------------------


def _pool(prefix, n, label=COVER, bpw=None, domain="M"):
    return [
        TextSample(id=f"{prefix}{i}", tokens=(4, 5), label=label, domain=domain, bpw=bpw)
        for i in range(n)
    ]


def test_make_splits_counts():
    ds = make_splits(_pool("c", 3000), _pool("s", 3000, STEGO, 1), {"train": 2000, "val": 200, "test": 200}, seed=7)
    assert ds.n_train == 4000  # N_sr for a labeled source domain
    assert len(ds.val) == 400 and len(ds.test) == 400


def test_make_splits_deterministic():
    covers, stegos = _pool("c", 50), _pool("s", 50, STEGO, 1)
    sizes = {"train": 20, "val": 10, "test": 10}
    a = make_splits(covers, stegos, sizes, seed=3)
    b = make_splits(covers, stegos, sizes, seed=3)
    assert [s.id for s in a.train] == [s.id for s in b.train]
    assert [s.id for s in a.test] == [s.id for s in b.test]
    c = make_splits(covers, stegos, sizes, seed=4)
    assert [s.id for s in a.train] != [s.id for s in c.train]


def test_make_splits_capacity_error_states_shortfall():
    with pytest.raises(CapacityError, match="short by 2300"):
        make_splits(_pool("c", 100), _pool("s", 100, STEGO, 1), {"train": 2000, "val": 200, "test": 200}, seed=0)


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(10, 40))
@settings(max_examples=25, deadline=None)
def test_split_cover_ids_disjoint(seed, n):
    sizes = {"train": n // 2, "val": n // 5, "test": n // 5}
    ds = make_splits(_pool("c", n), _pool("s", n, STEGO, 1), sizes, seed=seed)
    train = {s.id for s in ds.train_cover}
    val = {s.id for s in ds.val_cover}
    test = {s.id for s in ds.test_cover}
    assert not (train & val) and not (train & test) and not (val & test)


def test_dataset_rejects_overlapping_covers():
    shared = TextSample(id="dup", tokens=(4,), label=COVER, domain="M")
    with pytest.raises(IntegrityError, match=r"\['dup'\]"):
        DomainDataset(
            domain="M",
            train_cover=(shared,),
            train_stego=(),
            val_cover=(shared,),
            val_stego=(TextSample(id="s2", tokens=(4,), label=STEGO, domain="M", bpw=1),),
            test_cover=(),
            test_stego=(),
        )


def test_dataset_names_at_most_five_repeated_ids_in_first_seen_order():
    covers = tuple(TextSample(id=f"c{i}", tokens=(4,), label=COVER, domain="M") for i in range(7))
    stegos = tuple(TextSample(id=f"s{i}", tokens=(4,), label=STEGO, domain="M", bpw=1) for i in range(2))
    with pytest.raises(IntegrityError, match=r"\['c1', 'c2', 'c3', 'c4', 'c5'\]$"):
        DomainDataset(
            domain="M",
            train_cover=covers[1:] + covers[:1],
            train_stego=stegos,
            val_cover=(),
            val_stego=(),
            test_cover=covers[6:0:-1],  # c6 .. c1 again: six repeated, c0 and the stegos once
            test_stego=(),
        )


def test_split_manifest_and_jsonl_roundtrip(tmp_path):
    ds = make_splits(_pool("c", 30), _pool("s", 30, STEGO, 1), {"train": 10, "val": 5, "test": 5}, seed=1)
    write_split_manifest(ds, tmp_path / "m.jsonl")
    lines = [json.loads(l) for l in (tmp_path / "m.jsonl").read_text().splitlines()]
    assert len(lines) == 40
    assert {l["split"] for l in lines} == {"train", "val", "test"}

    dataset_to_jsonl(ds, tmp_path / "s.jsonl", tmp_path / "m2.jsonl")
    again = dataset_from_jsonl(tmp_path / "s.jsonl", tmp_path / "m2.jsonl")
    assert again == ds


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "c0", "split": "dev", "role": "cover"}, "unknown split/role dev/cover"),
        ({"id": "c0", "split": "train", "role": "both"}, "unknown split/role train/both"),
        ({"id": "nobody", "split": "train", "role": "cover"}, "manifest id 'nobody' missing from samples"),
    ],
    ids=["unknown-split", "unknown-role", "missing-id"],
)
def test_bad_split_record_names_file_and_line(tmp_path, record, message):
    dataset = make_splits(_pool("c", 3), _pool("s", 3, STEGO, 1), {"train": 1, "val": 1, "test": 1}, seed=0)
    splits = tmp_path / "splits.jsonl"
    dataset_to_jsonl(dataset, tmp_path / "samples.jsonl", splits)
    lines = splits.read_text().splitlines(keepends=True)
    splits.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[1:]))
    with pytest.raises(CorpusError, match=re.escape(f"{splits}: line 2: {message}")) as info:
        dataset_from_jsonl(tmp_path / "samples.jsonl", splits)
    assert info.value.line == 2


def test_non_utf8_samples_line_names_it(tmp_path):
    dataset = make_splits(_pool("c", 3), _pool("s", 3, STEGO, 1), {"train": 1, "val": 1, "test": 1}, seed=0)
    dataset_to_jsonl(dataset, tmp_path / "samples.jsonl", tmp_path / "splits.jsonl")
    lines = (tmp_path / "samples.jsonl").read_bytes().splitlines(keepends=True)
    (tmp_path / "samples.jsonl").write_bytes(lines[0] + lines[1].replace(b'"M"', b'"M\xff"') + b"".join(lines[2:]))
    with pytest.raises(CorpusError, match="line 2: not valid UTF-8"):
        dataset_from_jsonl(tmp_path / "samples.jsonl", tmp_path / "splits.jsonl")


# ---------------------------------------------------------------------------
# atomic_open
# ---------------------------------------------------------------------------


def test_nested_writers_of_one_path_both_publish(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path) as outer:
        outer.write("outer\n" * 1000)
        with atomic_open(path) as inner:
            inner.write("inner\n")
        assert path.read_text() == "inner\n"
        outer.write("end\n")
    assert path.read_text() == "outer\n" * 1000 + "end\n"
    assert not list(tmp_path.glob("*.tmp"))
