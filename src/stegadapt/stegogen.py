"""Cover and stego text generation over a Markov language model.

The language model is an order-k token chain with additive smoothing, built
once by :func:`fit_lm` from transition counts and immutable afterwards. Covers
are ancestral samples. At each stego step one code maps the top-2^k next-token
candidates (k <= bpw) to bits: fixed-length big-endian indices (FLC) or a
Huffman code over the pool (VLC). A step's code depends only on the context,
bpw, the coding and (FLC) the bits left, so each LM builds it once and keeps it
in its step-code table. Embedding emits the candidate whose code the payload
spells; extraction looks up the same code and reads the token's bits back, so
embedding needs no randomness while bits remain and round-trips are exact.
Every walk (sampling, embedding, extraction) carries its context key, the last
``order`` ids padded with BOS, and rolls it one token at a time.
:class:`DataConfig` holds and checks every knob :func:`build_domain_dataset` reads,
and that function returns the generated dataset alone; the data cache, its key
and each domain's ``manifest.json`` belong to ``experiment.prepare_data``.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import BOS, EOS, PAD, TextSample, Vocab, make_splits, reading, tokenize
from .corpus import COVER, STEGO, DomainDataset
from .errors import DesyncError

CODINGS = ("flc", "vlc")
# The version of the generated data: the data cache's key and each manifest.json
# hold it, so bump it with any change that alters what generation produces.
GENERATION_VERSION = 1


@dataclass
class _CtxStats:
    """Per-context tables derived from raw counts, in the form the queries read them."""

    ids: tuple[int, ...]     # observed token ids, ascending
    cum: list[float]         # cumulative counts aligned with ids, for sampling; cum[-1] is the total
    ranked: tuple[int, ...]  # observed ids except EOS, by count desc, then id asc


@dataclass(frozen=True)
class _StepCode:
    """One step's code: ``{token: code}`` for extraction, its inverse for embedding, and whether it degraded."""

    codes: dict[int, tuple[int, ...]]
    by_code: dict[tuple[int, ...], int]
    degraded: bool


class MarkovLM:
    """Order-k conditional next-token distribution with additive smoothing.

    The distribution ranges over every vocab id except PAD and BOS; EOS is
    sampleable (it terminates sequences) but is excluded from embedding
    candidate pools. With ``alpha == 0`` only observed continuations have
    positive probability. It is built once, by :func:`fit_lm`, from ``counts``
    (context -> next id -> count), and is immutable: neither ``counts`` nor
    the per-context tables derived from them, nor the smoothing mass
    ``alpha * len(support)``, change afterwards. Every query takes a context
    key: the last ``order`` ids, padded with BOS; ``start`` is the empty
    history's. The step-code table ``_step_codes`` is derived state too: it
    is filled by :func:`_step_code` as contexts are visited, so it grows
    with them, and none of its entries can go stale.
    """

    def __init__(self, order: int, alpha: float, vocab: Vocab, counts: dict[tuple[int, ...], dict[int, int]]):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.order = order
        self.alpha = float(alpha)
        self.vocab = vocab
        self.counts = counts
        self.start = (BOS,) * order
        self._ctx: dict[tuple[int, ...], _CtxStats] = {}
        for ctx, bucket in counts.items():
            ids = tuple(sorted(bucket))
            ranked = tuple(t for t in sorted(bucket, key=lambda t: (-bucket[t], t)) if t != EOS)
            cum = list(itertools.accumulate(float(bucket[i]) for i in ids))
            self._ctx[ctx] = _CtxStats(ids=ids, cum=cum, ranked=ranked)
        self._step_codes: dict[tuple, _StepCode] = {}
        support = [i for i in range(vocab.size) if i not in (PAD, BOS)]
        self.support = np.array(support, dtype=np.int64)
        self._support_no_eos = tuple(i for i in support if i != EOS)
        self._smoothing = self.alpha * len(self.support)

    def ranked_candidates(self, key: tuple[int, ...], n: int) -> list[int]:
        """Top-n next tokens other than EOS after the context ``key``, by probability desc, ties by id asc.

        With smoothing every supported token is a candidate; with alpha == 0
        only observed continuations qualify.
        """
        stats = self._ctx.get(key)
        ranked = list(stats.ranked[:n]) if stats is not None else []
        if self.alpha > 0 and len(ranked) < n:
            observed = self.counts.get(key, {})
            for tok in self._support_no_eos:
                if tok not in observed:
                    ranked.append(tok)
                    if len(ranked) >= n:
                        break
        return ranked

    def step_probs(self, key: tuple[int, ...], ids: Sequence[int]) -> np.ndarray:
        """Smoothed probabilities of specific ids after the context ``key``."""
        stats = self._ctx.get(key)
        total = stats.cum[-1] if stats else 0
        denom = total + self._smoothing
        bucket = self.counts.get(key, {})
        return np.array([(bucket.get(int(i), 0) + self.alpha) / denom for i in ids])

    def sample_next(self, key: tuple[int, ...], rng: np.random.Generator) -> int:
        """One draw from the next-token distribution of the context ``key``, on one ``rng.random()`` variate."""
        stats = self._ctx.get(key)
        total = stats.cum[-1] if stats else 0
        weight = total + self._smoothing
        if weight <= 0:
            raise ValueError("context has no continuations and alpha is 0")
        u = rng.random() * weight
        if u < total:
            return stats.ids[bisect.bisect_right(stats.cum, u)]  # u < total = cum[-1], exactly
        j = int((u - total) // self.alpha)
        return int(self.support[min(j, len(self.support) - 1)])


def fit_lm(sequences: Iterable[Sequence[int]], vocab: Vocab, order: int = 2, alpha: float = 0.5) -> MarkovLM:
    """The LM of the (context, next) transition counts over id sequences, BOS padded, EOS terminated."""
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    size = vocab.size
    for seq in sequences:
        ctx = (BOS,) * order
        for tok in tuple(seq) + (EOS,):
            tok = int(tok)
            if tok in (PAD, BOS) or not 0 <= tok < size:
                raise ValueError(f"token id {tok} outside the generatable vocabulary")
            bucket = counts.setdefault(ctx, {})
            bucket[tok] = bucket.get(tok, 0) + 1
            ctx = ctx[1:] + (tok,)
    if not counts:  # every sequence counts at least its EOS
        raise ValueError("corpus must be nonempty")
    return MarkovLM(order, alpha, vocab, counts)


def _sample(
    lm: MarkovLM, key: tuple[int, ...], tokens: list[int], max_len: int, rng: np.random.Generator
) -> tuple[int, ...]:
    while len(tokens) < max_len:
        tok = lm.sample_next(key, rng)
        if tok == EOS:
            break
        tokens.append(tok)
        key = key[1:] + (tok,)
    return tuple(tokens)


def sample_cover(lm: MarkovLM, max_len: int, seed) -> tuple[int, ...]:
    """Ancestral sample until EOS or ``max_len`` tokens; deterministic by seed."""
    return _sample(lm, lm.start, [], max_len, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Coding layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StegoResult:
    """Embedding output plus the metadata extraction and audits need."""

    tokens: tuple[int, ...]
    bits_consumed: int
    embed_steps: int
    degraded_steps: int


def _check_codec(bpw: int, coding: str) -> None:
    if not 1 <= bpw <= 5:
        raise ValueError(f"bpw must be in 1..5, got {bpw}")
    if coding not in CODINGS:
        raise ValueError(f"coding must be one of {CODINGS}, got {coding!r}")


def huffman_codebook(ids: Sequence[int], probs: Sequence[float]) -> dict[int, tuple[int, ...]]:
    """Deterministic Huffman codes over a candidate pool.

    Repeatedly merges the two lowest-probability nodes, breaking ties by the
    smallest contained token id. Within a merged pair the more probable node
    takes the left branch (ties again to the smaller contained id), and left
    edges are bit 0, so a two-symbol pool maps bit 0 to the top-ranked
    candidate exactly like fixed-length indexing does. A single-symbol pool
    gets the empty code.

    Heap entries are ``(prob, min_id, tokens)``; a merge prepends bit 0 to
    the codes of the left node's tokens and bit 1 to the right node's.
    """
    if len(ids) != len(probs) or not ids:
        raise ValueError("ids and probs must be nonempty and aligned")
    heap = [(float(p), int(i), (int(i),)) for i, p in zip(ids, probs)]
    codes: dict[int, tuple[int, ...]] = {int(i): () for i in ids}
    heapq.heapify(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        left, right = (a, b) if a[0] == b[0] else (b, a)
        for tok in left[2]:
            codes[tok] = (0,) + codes[tok]
        for tok in right[2]:
            codes[tok] = (1,) + codes[tok]
        heapq.heappush(heap, (a[0] + b[0], min(a[1], b[1]), left[2] + right[2]))
    return codes


# Entry k: the big-endian k-bit codes of 0 .. 2^k - 1, for every pool size up to 2^5.
_FLC_CODES = tuple(
    tuple(tuple((i >> (k - 1 - j)) & 1 for j in range(k)) for i in range(1 << k)) for k in range(6)
)


def _step_code(lm: MarkovLM, key: tuple[int, ...], bpw: int, coding: str, bits_left: int) -> _StepCode:
    """The code of the top ``2^k`` candidates after ``key``, k = min(bpw, floor(log2 #cands)), from ``lm``'s table.

    FLC codes the ``i``-th candidate as big-endian ``i`` in ``min(k, bits_left)``
    bits; VLC codes each by Huffman over its renormalized LM probability.
    ``degraded`` marks steps with fewer than ``2^bpw`` candidates. The code
    depends only on the context, ``bpw``, the coding and, for FLC,
    ``min(bpw, bits_left)``; it is built on the first visit and then read
    from the table. A context with no candidates raises ``ValueError`` on
    every visit and stores nothing. ``key`` is a context key of ``lm``.
    """
    entry = (key, bpw, coding, min(bpw, bits_left) if coding == "flc" else 0)
    step = lm._step_codes.get(entry)
    if step is not None:
        return step
    cands = lm.ranked_candidates(key, 1 << bpw)
    if not cands:
        raise ValueError("no embedding candidates in this context")
    k = min(bpw, len(cands).bit_length() - 1)
    if coding == "flc":
        codes = dict(zip(cands, _FLC_CODES[min(k, bits_left)]))
    else:
        pool = cands[: 1 << k]
        probs = lm.step_probs(key, pool)
        codes = huffman_codebook(pool, probs / probs.sum())
    step = _StepCode(codes, {code: tok for tok, code in codes.items()}, len(cands) < (1 << bpw))
    lm._step_codes[entry] = step
    return step


def _embed(lm: MarkovLM, payload: Sequence[int], bpw: int, coding: str, max_len: int, seed) -> StegoResult:
    _check_codec(bpw, coding)
    payload = [int(b) for b in payload]
    if any(b not in (0, 1) for b in payload):
        raise ValueError("payload must be 0/1 bits")
    tokens: list[int] = []
    key = lm.start
    pos = steps = degraded = 0
    while len(tokens) < max_len and pos < len(payload):
        step = _step_code(lm, key, bpw, coding, len(payload) - pos)
        prefix: tuple[int, ...] = ()
        while prefix not in step.by_code:
            prefix += (payload[pos] if pos < len(payload) else 0,)  # past the payload: 0, VLC only
            pos = min(pos + 1, len(payload))
        tok = step.by_code[prefix]
        tokens.append(tok)
        key = key[1:] + (tok,)
        steps += 1
        degraded += step.degraded
    return StegoResult(_sample(lm, key, tokens, max_len, np.random.default_rng(seed)), pos, steps, degraded)


def embed_flc(lm: MarkovLM, payload: Sequence[int], bpw: int, max_len: int, seed) -> StegoResult:
    """Hide payload bits by indexing into the ranked candidate pool.

    Each step consumes the next ``k`` payload bits as a big-endian index
    into a pool of ``2^k`` candidates; the final step narrows the pool so it
    consumes exactly the bits that remain. After the payload the walk
    continues as pure sampling until a natural stop.
    """
    return _embed(lm, payload, bpw, "flc", max_len, seed)


def embed_vlc(lm: MarkovLM, payload: Sequence[int], bpw: int, max_len: int, seed) -> StegoResult:
    """Hide payload bits by spelling Huffman codes over the candidate pool.

    The pool probabilities are the renormalized smoothed LM probabilities.
    If the payload runs out mid-code the remaining bits default to 0, so the
    emitted token's code starts with the real bits and extraction can simply
    truncate.
    """
    return _embed(lm, payload, bpw, "vlc", max_len, seed)


def extract_bits(
    lm: MarkovLM, tokens: Sequence[int], coding: str, bpw: int, n_bits: int
) -> list[int]:
    """Replay candidate pools over stego tokens and invert the coding.

    Requires the same LM, coding, and bpw used at embedding time plus the
    payload length; raises :class:`DesyncError` when an emitted token falls
    outside its reconstructed pool or the text ends early.
    """
    _check_codec(bpw, coding)
    if n_bits < 0:
        raise ValueError("payload length must be >= 0")
    out: list[int] = []
    key = lm.start
    for step, tok in enumerate(tokens):
        if len(out) >= n_bits:
            break
        tok = int(tok)
        codes = _step_code(lm, key, bpw, coding, n_bits - len(out)).codes
        if tok not in codes:
            raise DesyncError(f"token {tok} not in the reconstructed pool", step=step)
        out.extend(codes[tok])
        key = key[1:] + (tok,)
    if len(out) < n_bits:
        raise DesyncError(
            f"stego text ended after {len(out)} of {n_bits} bits", step=len(tuple(tokens))
        )
    return out[:n_bits]


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def tokenize_corpus(corpus_path: str | Path) -> list[list[str]]:
    """The tokenized nonempty lines of a text corpus, in file order."""
    with reading(corpus_path):
        lines = Path(corpus_path).read_text(encoding="utf-8").splitlines()
    texts = [toks for toks in (tokenize(line) for line in lines) if toks]
    if not texts:
        raise ValueError(f"{corpus_path}: no usable text lines")
    return texts


@dataclass(frozen=True)
class DataConfig:
    """The ``data`` section: domain sources and the generation spec, checked whether or not a domain is generated."""

    domains: Mapping[str, str] = field(default_factory=dict)
    dataset_dirs: Mapping[str, str] = field(default_factory=dict)
    lm_order: int = 2
    alpha: float = 0.5
    min_freq: int = 2
    max_len: int = 64
    train: int = 2000
    val: int = 200
    test: int = 200
    bpw: int = 1
    coding: str = "flc"
    payload_bits: tuple[int, int] = (16, 48)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "domains", dict(self.domains))
        object.__setattr__(self, "dataset_dirs", dict(self.dataset_dirs))
        object.__setattr__(self, "payload_bits", tuple(self.payload_bits))
        if len(self.payload_bits) != 2:
            raise ValueError(f"data.payload_bits must be a pair [lo, hi], got {list(self.payload_bits)}")
        if not self.domains and not self.dataset_dirs:
            raise ValueError("config needs data.domains (corpus files) or data.dataset_dirs")
        try:
            _check_codec(self.bpw, self.coding)
        except ValueError as exc:
            raise ValueError(f"data.{exc}") from None
        if not 1 <= self.payload_bits[0] <= self.payload_bits[1] <= self.max_len:
            raise ValueError(f"data.payload_bits must be 1 <= lo <= hi <= data.max_len, got {list(self.payload_bits)}")
        for name in ("lm_order", "min_freq"):
            if getattr(self, name) < 1:
                raise ValueError(f"data.{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"data.alpha must be finite and >= 0, got {self.alpha}")
        for name, size in self.sizes.items():
            if size < 0:
                raise ValueError(f"data.{name} must be >= 0, got {size}")

    @property
    def sizes(self) -> dict[str, int]:
        return {"train": self.train, "val": self.val, "test": self.test}

    def domain_tags(self) -> list[str]:
        return sorted(set(self.domains) | set(self.dataset_dirs))


def build_domain_dataset(
    texts: Sequence[Sequence[str]], domain: str, data: DataConfig, seed: int, vocab: Vocab
) -> DomainDataset:
    """Fit a domain LM on ``vocab``-encoded texts and generate a full cover/stego dataset to the ``data`` spec.

    One LM per domain produces the covers and the stego texts for every
    split. Per-sample RNG streams are derived from (seed, class, index) so
    generation is reproducible and order independent.
    """
    sequences = [vocab.encode(t) for t in texts]
    lm = fit_lm(sequences, vocab, order=data.lm_order, alpha=data.alpha)
    lo, hi = data.payload_bits
    n_per_class = data.train + data.val + data.test
    embed = embed_flc if data.coding == "flc" else embed_vlc

    covers = []
    for i in range(n_per_class):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
        tokens = ()
        for _ in range(100):
            tokens = sample_cover(lm, data.max_len, rng)
            if tokens:
                break
        if not tokens:
            raise ValueError("language model keeps producing empty covers")
        covers.append(TextSample(id=f"{domain}-cover-{i:05d}", tokens=tokens, label=COVER, domain=domain))

    stegos = []
    for i in range(n_per_class):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, i]))
        result = None
        for _ in range(100):
            n_bits = int(rng.integers(lo, hi + 1))
            payload = rng.integers(0, 2, n_bits).tolist()
            attempt = embed(lm, payload, data.bpw, data.max_len, rng)
            if attempt.bits_consumed == n_bits and attempt.tokens:
                result = attempt
                break
        if result is None:
            raise ValueError(f"could not embed a payload from {data.payload_bits} within max_len={data.max_len}")
        stegos.append(
            TextSample(id=f"{domain}-stego-{i:05d}", tokens=result.tokens, label=STEGO, domain=domain, bpw=data.bpw)
        )

    split_seed = int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])
    return make_splits(covers, stegos, data.sizes, seed=split_seed)
