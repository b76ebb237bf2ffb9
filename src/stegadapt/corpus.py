"""Corpus ingestion, tokenization, vocabulary, leak-free split assembly, and file I/O.

Samples flow through two representations: straight after ingesting raw text
their ``tokens`` are surface strings; once a :class:`Vocab` exists they are
encoded to integer ids, which is what every downstream stage consumes. Every
JSONL file is read through :func:`read_jsonl`, every reader reports a bad file
through :func:`reading`, which names it, and every file is written through
:func:`atomic_open`.
"""

from __future__ import annotations

import json
import os
import unicodedata
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, CorpusError, IntegrityError, StegadaptError

COVER = 0
STEGO = 1
UNLABELED = None

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

_LABEL_NAMES = {COVER: "cover", STEGO: "stego"}
_NAME_LABELS = {"cover": COVER, "stego": STEGO}
# json.dumps(rec, sort_keys=True) is this encoder's encode, without a new encoder per record.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Write ``path`` through a temp file beside it, renamed over it on success.

    Each writer creates its own ``<name>.<pid>.<hex>.tmp``, so the last to
    finish publishes its whole content. On any exception the temp file is
    removed and the old file stays.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Write each string as one newline-terminated line, atomically."""
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def write_jsonl(records: Iterable[Mapping], path: str | Path) -> None:
    """Write one sorted-key JSON object per line, atomically."""
    write_lines(map(_JSONL_ENCODER.encode, records), path)


@contextmanager
def reading(path: str | Path):
    """Name ``path`` in the package errors raised inside (``CorpusError.line`` stays) and in UTF-8 errors."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except StegadaptError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each nonblank line of a JSONL file.

    A line that is not valid UTF-8, not valid JSON or not a JSON object raises
    :class:`CorpusError` naming it.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = json.loads(line)
            except UnicodeDecodeError as exc:
                raise CorpusError(f"not valid UTF-8 ({exc.reason})", line=lineno) from exc
            except json.JSONDecodeError as exc:
                raise CorpusError(f"invalid JSON ({exc.msg})", line=lineno) from exc
            if not isinstance(rec, dict):
                raise CorpusError("record is not an object", line=lineno)
            yield lineno, rec


@dataclass(frozen=True)
class TextSample:
    """One text with an optional cover/stego label and a domain tag."""

    id: str
    tokens: tuple
    label: int | None
    domain: str
    bpw: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError(f"sample {self.id!r}: tokens must be nonempty")
        if self.label not in (COVER, STEGO, UNLABELED):
            raise ValueError(f"sample {self.id!r}: label must be 0, 1, or None")
        if (self.bpw is not None) != (self.label == STEGO):
            raise ValueError(f"sample {self.id!r}: bpw must be present iff label is stego")
        if self.bpw is not None and (type(self.bpw) is not int or not 1 <= self.bpw <= 5):  # a bool is not a bpw
            raise ValueError(f"sample {self.id!r}: bpw must be an integer in 1..5")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, detach punctuation characters.

    Each punctuation character becomes its own token, so the output of
    ``tokenize(" ".join(tokens))`` equals ``tokens`` for any tokenized input.
    """
    out: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():  # isalnum characters are letters or numbers, never punctuation (category P*)
            out.append(chunk)
            continue
        word: list[str] = []
        for ch in chunk:
            if unicodedata.category(ch).startswith("P"):
                if word:
                    out.append("".join(word))
                    word = []
                out.append(ch)
            else:
                word.append(ch)
        if word:
            out.append("".join(word))
    return out


@dataclass(frozen=True)
class Vocab:
    """Token <-> id maps with fixed reserved ids PAD=0, UNK=1, BOS=2, EOS=3."""

    id_to_token: tuple[str, ...]
    token_to_id: Mapping[str, int]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.token_to_id.get(t, UNK) for t in tokens)

    def to_json(self) -> str:
        return json.dumps({"tokens": list(self.id_to_token)}, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "Vocab":
        try:
            raw = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"vocab file is not valid JSON ({exc.msg})", line=exc.lineno) from exc
        tokens = raw.get("tokens") if isinstance(raw, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError('vocab file is not {"tokens": [<strings>]}')
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise CorpusError("vocab file does not start with the reserved tokens")
        return cls(tuple(tokens), {t: i for i, t in enumerate(tokens)})


def build_vocab(corpus: Iterable[Sequence[str]], min_freq: int = 2) -> Vocab:
    """Build a vocabulary over tokenized texts.

    Tokens with frequency >= ``min_freq`` get ids from 4 upward, ordered by
    descending frequency and then lexicographically.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    freq: Counter[str] = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        freq.update(text)
    if n_texts == 0:
        raise ValueError("corpus must be nonempty")
    kept = sorted((t for t, c in freq.items() if c >= min_freq), key=lambda t: (-freq[t], t))
    id_to_token = RESERVED_TOKENS + tuple(kept)
    return Vocab(id_to_token, {t: i for i, t in enumerate(id_to_token)})


def load_corpus(path: str | Path, vocab: Vocab | None = None) -> list[TextSample]:
    """Read one JSONL sample record per line.

    Records need ``id``, ``domain``, and either ``text`` (raw string, run
    through :func:`tokenize`) or ``tokens`` (all integer ids or all surface
    strings). ``label`` may be "cover", "stego", or null/absent; stego
    records must carry ``bpw``. With a ``vocab``, surface tokens are encoded
    to ids. A bad record raises :class:`CorpusError` naming the file and line.
    """
    samples: list[TextSample] = []
    seen: set[str] = set()
    with reading(path):
        for lineno, rec in read_jsonl(path):
            for key in ("id", "domain"):
                if key not in rec:
                    raise CorpusError(f"missing required key {key!r}", line=lineno)
            if "text" not in rec and "tokens" not in rec:
                raise CorpusError("record needs a 'text' or 'tokens' key", line=lineno)
            sid = str(rec["id"])
            if sid in seen:
                raise IntegrityError(f"duplicate sample id {sid!r} at line {lineno}")
            seen.add(sid)
            if not isinstance(rec.get("tokens", []), list) or not isinstance(rec.get("text", ""), str):
                raise CorpusError("'tokens' must be a list and 'text' a string", line=lineno)
            if "tokens" in rec:
                tokens = tuple(rec["tokens"])
                types = set(map(type, tokens))  # exact types: a bool is not an id
                if types == {str}:
                    tokens = vocab.encode(tokens) if vocab is not None else tokens
                elif not types <= {int}:
                    raise CorpusError("'tokens' must be all integer ids or all strings", line=lineno)
            else:
                toks = tokenize(rec["text"])
                tokens = vocab.encode(toks) if vocab is not None else tuple(toks)
            label = rec.get("label")
            if label is not None:
                if not isinstance(label, str) or label not in _NAME_LABELS:
                    raise CorpusError(f"unknown label {label!r}", line=lineno)
                label = _NAME_LABELS[label]
            try:
                sample = TextSample(id=sid, tokens=tokens, label=label, domain=str(rec["domain"]), bpw=rec.get("bpw"))
            except ValueError as exc:
                raise CorpusError(str(exc), line=lineno) from exc
            samples.append(sample)
    return samples


def save_corpus(samples: Iterable[TextSample], path: str | Path) -> None:
    """Write samples as JSONL in the format :func:`load_corpus` reads."""

    def record(s: TextSample) -> dict:
        rec = {"id": s.id, "tokens": list(s.tokens), "label": _LABEL_NAMES.get(s.label), "domain": s.domain}
        return rec if s.bpw is None else {**rec, "bpw": s.bpw}

    write_jsonl(map(record, samples), path)


def strip_labels(samples: Iterable[TextSample]) -> list[TextSample]:
    """Drop labels (and generation metadata) to form an unlabeled target pool."""
    return [replace(s, label=UNLABELED, bpw=None) for s in samples]


_SPLIT_ROLES = (
    ("train", "cover", "train_cover"),
    ("train", "stego", "train_stego"),
    ("val", "cover", "val_cover"),
    ("val", "stego", "val_stego"),
    ("test", "cover", "test_cover"),
    ("test", "stego", "test_stego"),
)


@dataclass(frozen=True)
class DomainDataset:
    """Train/val/test cover and stego samples for one domain.

    Every sample id appears once across the six parts, so cover ids are
    disjoint across the three splits, and val/test are class balanced; both
    are checked at construction.
    """

    domain: str
    train_cover: tuple[TextSample, ...]
    train_stego: tuple[TextSample, ...]
    val_cover: tuple[TextSample, ...]
    val_stego: tuple[TextSample, ...]
    test_cover: tuple[TextSample, ...]
    test_stego: tuple[TextSample, ...]

    def __post_init__(self):
        for _, _, name in _SPLIT_ROLES:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        counts = Counter(s.id for part in self._parts() for s in part)
        if len(counts) != sum(counts.values()):
            shared = [sid for sid, n in counts.items() if n > 1][:5]
            raise IntegrityError(f"sample ids appear more than once in the dataset: {shared}")
        if len(self.val_cover) != len(self.val_stego):
            raise IntegrityError("val split is not class balanced")
        if len(self.test_cover) != len(self.test_stego):
            raise IntegrityError("test split is not class balanced")

    def _parts(self):
        return tuple(getattr(self, name) for _, _, name in _SPLIT_ROLES)

    @property
    def train(self) -> tuple[TextSample, ...]:
        return self.train_cover + self.train_stego

    @property
    def val(self) -> tuple[TextSample, ...]:
        return self.val_cover + self.val_stego

    @property
    def test(self) -> tuple[TextSample, ...]:
        return self.test_cover + self.test_stego

    @property
    def n_train(self) -> int:
        """Labeled size when this domain is the source, pool size when target."""
        return len(self.train_cover) + len(self.train_stego)


def make_splits(
    cover_pool: Sequence[TextSample],
    stego_pool: Sequence[TextSample],
    sizes: Mapping[str, int],
    seed: int,
) -> DomainDataset:
    """Shuffle each pool by ``seed`` and cut train/val/test of ``sizes`` per class."""
    for key in ("train", "val", "test"):
        if key not in sizes:
            raise ValueError(f"sizes must contain {key!r}")
        if sizes[key] < 0:
            raise ValueError(f"sizes[{key!r}] must be >= 0")
    need = sizes["train"] + sizes["val"] + sizes["test"]
    for name, pool in (("cover", cover_pool), ("stego", stego_pool)):
        if len(pool) < need:
            raise CapacityError(
                f"{name} pool has {len(pool)} samples, need {need} (short by {need - len(pool)})"
            )
        ids = [s.id for s in pool]
        if len(ids) != len(set(ids)):
            raise IntegrityError(f"duplicate ids inside the {name} pool")
    domains = {s.domain for s in cover_pool} | {s.domain for s in stego_pool}
    if len(domains) != 1:
        raise ValueError(f"pools mix domains: {sorted(domains)}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    cuts = (sizes["train"], sizes["train"] + sizes["val"], need)

    def cut(pool: Sequence[TextSample]):
        order = rng.permutation(len(pool))
        chosen = [pool[i] for i in order[: cuts[2]]]
        return chosen[: cuts[0]], chosen[cuts[0] : cuts[1]], chosen[cuts[1] :]

    train_c, val_c, test_c = cut(cover_pool)
    train_s, val_s, test_s = cut(stego_pool)
    return DomainDataset(
        domain=domains.pop(),
        train_cover=train_c,
        train_stego=train_s,
        val_cover=val_c,
        val_stego=val_s,
        test_cover=test_c,
        test_stego=test_s,
    )


def write_split_manifest(dataset: DomainDataset, path: str | Path) -> None:
    """Record which sample landed in which split, for reproducibility audits."""
    placed = ((split, role, s) for split, role, attr in _SPLIT_ROLES for s in getattr(dataset, attr))
    write_jsonl(({"id": s.id, "split": split, "role": role} for split, role, s in placed), path)


def dataset_to_jsonl(dataset: DomainDataset, samples_path: str | Path, manifest_path: str | Path) -> None:
    save_corpus([s for part in dataset._parts() for s in part], samples_path)
    write_split_manifest(dataset, manifest_path)


def dataset_from_jsonl(
    samples_path: str | Path, manifest_path: str | Path, vocab: Vocab | None = None
) -> DomainDataset:
    """Read a dataset that :func:`dataset_to_jsonl` wrote; ``vocab`` is passed to :func:`load_corpus`.

    A split record that :func:`read_jsonl` rejects, lacks ``id``, ``split``
    or ``role``, or names an unknown split/role or sample raises
    :class:`CorpusError` with its file and line, as does an empty samples file.
    """
    samples = {s.id: s for s in load_corpus(samples_path, vocab=vocab)}
    if not samples:
        raise CorpusError(f"{samples_path} holds no sample records")
    parts: dict[str, list[TextSample]] = {attr: [] for _, _, attr in _SPLIT_ROLES}
    with reading(manifest_path):
        for lineno, rec in read_jsonl(manifest_path):
            if not {"id", "split", "role"} <= rec.keys():
                raise CorpusError("split record needs 'id', 'split' and 'role'", line=lineno)
            attr = f"{rec['split']}_{rec['role']}"
            if attr not in parts:
                raise CorpusError(f"unknown split/role {rec['split']}/{rec['role']}", line=lineno)
            sid = str(rec["id"])
            if sid not in samples:
                raise CorpusError(f"manifest id {sid!r} missing from samples", line=lineno)
            parts[attr].append(samples[sid])
        return DomainDataset(domain=next(iter(samples.values())).domain, **parts)
