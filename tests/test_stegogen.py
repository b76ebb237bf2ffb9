from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegadapt.config import load_config
from stegadapt.corpus import BOS, EOS, PAD, build_vocab
from stegadapt.errors import DesyncError
from stegadapt.experiment import prepare_data
from stegadapt.stegogen import (
    CODINGS,
    GENERATION_VERSION,
    DataConfig,
    MarkovLM,
    _step_code,
    build_domain_dataset,
    embed_flc,
    embed_vlc,
    extract_bits,
    fit_lm,
    huffman_codebook,
    sample_cover,
    tokenize_corpus,
)
import codec_digest
from codec_digest import codec_digests, fit_harbor_lm
from dataset_digest import dataset_digest
from oracles import (
    codebook_weighted_length,
    inverse_cdf_next,
    next_distribution,
    optimal_prefix_weighted_length,
    sorted_candidates,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
HARBOR = REPO_ROOT / "data" / "corpora" / "harbor.txt"


def _vocab(words):
    return build_vocab([list(words)], min_freq=1)


def _lm_from_counts(vocab, context_counts, order=1, alpha=0.0):
    """LM built straight from the given counts, for precise pool control."""
    return MarkovLM(order, alpha, vocab, context_counts)


# ---------------------------------------------------------------------------
# fit_lm
# ---------------------------------------------------------------------------


def test_fit_lm_single_continuation():
    vocab = _vocab("ab")
    a, b = vocab.encode(["a", "b"])
    lm = fit_lm([vocab.encode(["a", "b", "a", "b"])], vocab, order=1, alpha=0.0)
    ids, probs = next_distribution(lm, [a])
    assert probs[list(ids).index(b)] == 1.0


def test_fit_lm_smoothing_gives_unseen_mass():
    vocab = _vocab("ab")
    a, b = vocab.encode(["a", "b"])
    lm = fit_lm([(a, b)], vocab, order=1, alpha=1.0)
    ids, probs = next_distribution(lm, [b])  # b was only followed by EOS
    support = len(ids)
    total = 1  # one observed continuation (EOS)
    unseen = probs[list(ids).index(a)]
    assert unseen == pytest.approx(1.0 / (total + support))
    assert probs.sum() == pytest.approx(1.0)


def test_fit_lm_doubled_corpus_same_relative_frequencies():
    vocab = _vocab("abc")
    seq = vocab.encode(["a", "b", "a", "c"])
    one = fit_lm([seq], vocab, order=1, alpha=0.0)
    two = fit_lm([seq, seq], vocab, order=1, alpha=0.0)
    a = vocab.encode(["a"])[0]
    for ctx_counts, doubled in zip(one.counts.items(), two.counts.items()):
        assert doubled[1] == {t: 2 * c for t, c in ctx_counts[1].items()}
    _, p_one = next_distribution(one, [a])
    _, p_two = next_distribution(two, [a])
    np.testing.assert_allclose(p_one, p_two)


def test_fit_lm_rejects_empty_corpus():
    with pytest.raises(ValueError):
        fit_lm([], _vocab("a"), order=1)


def test_fit_lm_rejects_reserved_ids():
    vocab = _vocab("a")
    with pytest.raises(ValueError):
        fit_lm([(PAD,)], vocab, order=1)


# ---------------------------------------------------------------------------
# sample_cover
# ---------------------------------------------------------------------------


def test_sample_cover_forced_eos_gives_empty_body():
    vocab = _vocab("a")
    lm = _lm_from_counts(vocab, {(BOS,): {EOS: 1}})
    assert sample_cover(lm, max_len=10, seed=0) == ()


def test_sample_cover_deterministic():
    vocab = _vocab("abcdef")
    corpus = [vocab.encode(list("abcdef")), vocab.encode(list("fedcba"))]
    lm = fit_lm(corpus, vocab, order=1, alpha=0.5)
    assert sample_cover(lm, 20, seed=42) == sample_cover(lm, 20, seed=42)
    assert sample_cover(lm, 20, seed=42) != sample_cover(lm, 20, seed=43)


def test_sample_cover_matches_multinomial_oracle():
    # First token frequencies over many draws stay within 3 sigma of the LM.
    vocab = _vocab("ab")
    a, b = vocab.encode(["a", "b"])
    lm = _lm_from_counts(vocab, {(BOS,): {a: 3, b: 1}, (a,): {EOS: 1}, (b,): {EOS: 1}})
    n = 1000
    draws = [sample_cover(lm, 4, seed=i)[0] for i in range(n)]
    count_a = sum(1 for d in draws if d == a)
    p = 0.75
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(count_a - n * p) < 3 * sigma


# ---------------------------------------------------------------------------
# The per-context tables against brute-force oracles over the raw counts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def letter_texts():
    rng = np.random.default_rng(123)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    return [rng.choice(letters, size=int(rng.integers(4, 16))).tolist() for _ in range(300)]


def _letter_lm(texts, order, alpha):
    vocab = build_vocab(texts, min_freq=1)
    return fit_lm([vocab.encode(t) for t in texts], vocab, order=order, alpha=alpha)


@pytest.mark.parametrize("order, alpha", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)])
def test_sample_next_matches_inverse_cdf_oracle(letter_texts, order, alpha):
    lm = _letter_lm(letter_texts, order, alpha)
    for seed in range(40):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        history: list[int] = []
        while len(history) < 24:
            tok = lm.sample_next(lm._context_key(history), rng)
            assert tok == inverse_cdf_next(lm, history, twin.random())
            if tok == EOS:
                break
            history.append(tok)
        assert rng.random() == twin.random()  # one variate per sampled token


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_sample_cover_matches_an_inverse_cdf_walk(letter_texts, order, alpha):
    # Order 3 rolls the context through two and then one BOS of padding.
    lm = _letter_lm(letter_texts, order, alpha)
    for seed in range(40):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        walk: list[int] = []
        while len(walk) < 24:
            tok = inverse_cdf_next(lm, walk, twin.random())
            if tok == EOS:
                break
            walk.append(tok)
        assert sample_cover(lm, 24, rng) == tuple(walk)
        assert rng.random() == twin.random()


class _FixedUniforms:
    """Stands in for a numpy Generator whose ``random()`` yields the given variates."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_sample_next_on_cdf_boundaries_matches_oracle():
    # Total mass 4 keeps u * 4 exact, so u lands on the cumulative counts 1, 2 and 4.
    vocab = _vocab("abc")
    a, b, c = vocab.encode(["a", "b", "c"])
    lm = _lm_from_counts(vocab, {(BOS,): {a: 1, b: 1, c: 2}})
    for u in (0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 0.9375):
        assert lm.sample_next(lm._context_key([]), _FixedUniforms([u])) == inverse_cdf_next(lm, [], u)


@pytest.mark.parametrize("order, alpha", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)])
def test_ranked_candidates_matches_sort_oracle(letter_texts, order, alpha):
    lm = _letter_lm(letter_texts, order, alpha)
    rng = np.random.default_rng(order * 10 + int(alpha > 0))
    ids = [t for t in range(lm.vocab.size) if t not in (PAD, BOS, EOS)]
    for _ in range(300):
        history = rng.choice(ids, size=int(rng.integers(0, 4))).tolist()  # unseen contexts included
        for n in (1, 2, 4, 8, 32):
            assert lm.ranked_candidates(history, n) == sorted_candidates(lm, history, n)


# Taken from the generator before its per-context tables became Python lists;
# a change here is a change of generated data. Re-pinning one of these digests
# means bumping GENERATION_VERSION, and bumping it means re-pinning them.
_PINNED_GENERATION_VERSION = 1
_PINNED_DIGESTS = [
    ("flc", 1, 0.0, "13ae8fb26473b41577d989970b1ff314aca7def908c854aed3d4850f61388771"),
    ("flc", 1, 0.5, "fe7a00aac2d23eb547533ac83c723936ed1c833d6130f2370aee75a73eadabc8"),
    ("flc", 2, 0.0, "2a1d574c884926ce26f0fc4d86a7b7634b4b5d6cd696cf4d5a0c84fdf5428dcc"),
    ("flc", 2, 0.5, "62c53d1a2b32b1623119f1963f21e0e2253c3b45000b9e95443e91716bc3d60a"),
    ("vlc", 1, 0.0, "3c7037aa221a8c704fbaf7bf5435c76f44a1db631e3636115661c3dec695990a"),
    ("vlc", 1, 0.5, "68f04887275a06787467bcf3869eaf6245c1af6e48a9debc74428bf2a8ee2db6"),
    ("vlc", 2, 0.0, "b4d7a7d764b93372713933a857ad18d3fcdf1db6aaea25d967f434f9ec7bca4a"),
    ("vlc", 2, 0.5, "659b554429a30619fb97e35eaee366f69688b72182b7604c2ecf3008ea45042a"),
]


# What tools/dataset_digest.py prints last for each config: tokenizer, shared
# vocabulary and per-domain seeds included. Same re-pinning rule as above.
_PINNED_CONFIG_DIGESTS = {
    "quick": "e81c1cc9dc385a12b909adf65827f17d497c6358c6acf970a82091116d31eaf8",
    "desk": "83ea8713234ca667df9fc58198e306ae69c687e3852ed6d0c0c7d2de1c40e1d6",
}


def test_generation_version_is_pinned_beside_the_digests():
    assert GENERATION_VERSION == _PINNED_GENERATION_VERSION


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIG_DIGESTS))
def test_prepare_data_matches_the_pinned_config_digest(monkeypatch, name):
    monkeypatch.chdir(REPO_ROOT)  # the configs name their corpora from the repository root
    datasets = prepare_data(load_config(REPO_ROOT / "configs" / f"{name}.json")).datasets
    assert dataset_digest(*(datasets[tag] for tag in sorted(datasets))) == _PINNED_CONFIG_DIGESTS[name]


@pytest.fixture(scope="module")
def harbor_texts():
    texts = tokenize_corpus(HARBOR)
    return texts, build_vocab(texts, min_freq=2)


@pytest.mark.parametrize(
    "coding, order, alpha, digest", _PINNED_DIGESTS, ids=[f"{c}-order{o}-alpha{a}" for c, o, a, _ in _PINNED_DIGESTS]
)
def test_build_domain_dataset_matches_pinned_digest(harbor_texts, coding, order, alpha, digest):
    texts, vocab = harbor_texts
    data = DataConfig(
        domains={"H": str(HARBOR)}, train=40, val=10, test=10, bpw=3, coding=coding,
        lm_order=order, alpha=alpha, max_len=32, payload_bits=(4, 24),
    )
    assert dataset_digest(build_domain_dataset(texts, "H", data, 7, vocab)) == digest


# Taken from the generator before the LM became immutable and the Huffman
# builder lost its node tree; a change here is a change of stego text or bits.
_PINNED_CODEC_DIGESTS = {
    "flc": "ab9d505cded8b709993f480b5578392a6dcc9b76068789e56048d1c9be651937",
    "vlc": "d8aa2bf74e04c071604c3f46ac7b80820b49a21ceb208ce51b1a59ca1fb5bc4c",
}


def test_codec_round_trips_match_pinned_digest_at_every_bpw():
    lm = fit_harbor_lm()
    assert codec_digests(lm) == _PINNED_CODEC_DIGESTS
    assert codec_digests(lm) == _PINNED_CODEC_DIGESTS  # the second pass reads the step codes the first built


@pytest.mark.parametrize("second, status", [("b", 0), ("c", 1)], ids=["same", "differs"])
def test_codec_digest_tool_checks_the_warm_pass(monkeypatch, capsys, second, status):
    passes = iter([{"flc": "a", "vlc": "b"}, {"flc": "a", "vlc": second}])
    monkeypatch.setattr(codec_digest, "fit_harbor_lm", lambda: None)
    monkeypatch.setattr(codec_digest, "codec_digests", lambda lm: next(passes))
    assert codec_digest.main() == status
    out, err = capsys.readouterr()
    assert out.splitlines()[:2] == ["flc a", "vlc b"] and len(out.splitlines()) == 3
    assert ("warm LM" in err) == bool(status)


# ---------------------------------------------------------------------------
# Candidate pools and FLC
# ---------------------------------------------------------------------------


def _ranked_lm(vocab, counts_desc):
    """Order-1 LM where every context ranks tokens by the given descending counts."""
    t = {w: vocab.encode([w])[0] for w in counts_desc}
    pool = {t[w]: c for w, c in counts_desc.items()}
    ctx = {(BOS,): dict(pool)}
    for w in counts_desc:
        ctx[(t[w],)] = dict(pool) | {EOS: 1}
    return _lm_from_counts(vocab, ctx)


def test_ranked_candidates_order_and_tie_rule():
    vocab = _vocab("pqrs")
    lm = _ranked_lm(vocab, {"p": 5, "q": 3, "r": 3, "s": 1})
    ranked = lm.ranked_candidates([], 4)
    p, q, r, s = vocab.encode(["p", "q", "r", "s"])
    assert ranked == [p, q, r, s]  # q before r: equal counts, smaller id wins


def test_embed_flc_indexes_pool_big_endian():
    vocab = _vocab("pqrs")
    lm = _ranked_lm(vocab, {"p": 8, "q": 4, "r": 2, "s": 1})
    t2 = lm.ranked_candidates([], 4)[2]
    result = embed_flc(lm, [1, 0], bpw=2, max_len=8, seed=0)
    assert result.tokens[0] == t2
    assert result.bits_consumed == 2


def test_embed_flc_empty_payload_equals_cover_sampling():
    vocab = _vocab("abcdef")
    lm = fit_lm([vocab.encode(list("abcdef")), vocab.encode(list("fdbeca"))], vocab, order=1, alpha=0.5)
    result = embed_flc(lm, [], bpw=2, max_len=16, seed=9)
    assert result.tokens == sample_cover(lm, 16, seed=9)
    assert result.bits_consumed == 0 and result.embed_steps == 0


def test_embed_flc_rejects_bad_bpw():
    vocab = _vocab("ab")
    lm = fit_lm([vocab.encode(["a", "b"])], vocab, order=1, alpha=0.5)
    with pytest.raises(ValueError):
        embed_flc(lm, [0], bpw=0, max_len=4, seed=0)
    with pytest.raises(ValueError):
        embed_flc(lm, [0], bpw=6, max_len=4, seed=0)


def test_embed_flc_degrades_small_pools_to_power_of_two():
    # alpha=0 with three continuations: pool degrades from 4 to 2 candidates.
    vocab = _vocab("pqr")
    lm = _ranked_lm(vocab, {"p": 4, "q": 2, "r": 1})
    result = embed_flc(lm, [1, 1], bpw=2, max_len=8, seed=0)
    assert result.degraded_steps >= 1
    # Each degraded step consumes 1 bit from a 2-candidate pool.
    assert result.tokens[0] == lm.ranked_candidates([], 2)[1]
    bits = extract_bits(lm, result.tokens, "flc", bpw=2, n_bits=result.bits_consumed)
    assert bits == [1, 1][: result.bits_consumed]


# ---------------------------------------------------------------------------
# Huffman / VLC
# ---------------------------------------------------------------------------


def test_huffman_hand_oracle():
    codes = huffman_codebook([10, 11, 12], [0.5, 0.25, 0.25])
    assert codes == {10: (0,), 11: (1, 0), 12: (1, 1)}


def test_huffman_single_symbol_pool():
    assert huffman_codebook([7], [1.0]) == {7: ()}


def test_huffman_deterministic_on_identical_pools():
    ids = [4, 9, 5, 7]
    probs = [0.4, 0.3, 0.2, 0.1]
    assert huffman_codebook(ids, probs) == huffman_codebook(list(ids), list(probs))


def test_huffman_is_prefix_free():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(n))
        codes = list(huffman_codebook(list(range(n)), probs).values())
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert a[: len(b)] != b


def test_huffman_matches_bruteforce_optimum_on_small_pools():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        weights = [int(w) for w in rng.integers(1, 20, n)]
        ids = list(range(n))
        total = sum(weights)
        codes = huffman_codebook(ids, [w / total for w in weights])
        got = codebook_weighted_length(codes, dict(zip(ids, weights)))
        assert got == optimal_prefix_weighted_length(weights)


def test_vlc_equals_flc_at_bpw_1():
    vocab = _vocab("pqrs")
    lm = _ranked_lm(vocab, {"p": 8, "q": 4, "r": 2, "s": 1})
    bits = [1, 0, 1, 1, 0]
    flc = embed_flc(lm, bits, bpw=1, max_len=12, seed=3)
    vlc = embed_vlc(lm, bits, bpw=1, max_len=12, seed=3)
    assert flc == vlc


def test_vlc_bits_per_token_within_entropy_bounds():
    vocab = build_vocab([list("abcdefghijklmnop")], min_freq=1)
    corpus = []
    rng = np.random.default_rng(7)
    letters = list("abcdefghijklmnop")
    for _ in range(200):
        corpus.append(vocab.encode(rng.choice(letters, size=12).tolist()))
    lm = fit_lm(corpus, vocab, order=1, alpha=0.5)
    rates = []
    for i in range(1000):
        rng_i = np.random.default_rng(i)
        bits = rng_i.integers(0, 2, 24).tolist()
        res = embed_vlc(lm, bits, bpw=3, max_len=64, seed=i)
        if res.embed_steps:
            rates.append(res.bits_consumed / res.embed_steps)
    mean_rate = float(np.mean(rates))
    assert 1.0 <= mean_rate <= 3.0


# ---------------------------------------------------------------------------
# extract_bits round trips
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def roundtrip_lm(letter_texts):
    return _letter_lm(letter_texts, order=2, alpha=0.5)


@pytest.mark.parametrize("coding", ["flc", "vlc"])
@pytest.mark.parametrize("bpw", [1, 3, 5])
def test_roundtrip_random_payloads(roundtrip_lm, coding, bpw):
    embed = embed_flc if coding == "flc" else embed_vlc
    rng = np.random.default_rng(bpw * 100 + (coding == "vlc"))
    for i in range(50):
        n_bits = int(rng.integers(1, 40))
        payload = rng.integers(0, 2, n_bits).tolist()
        res = embed(roundtrip_lm, payload, bpw, max_len=128, seed=i)
        assert res.bits_consumed == n_bits
        assert extract_bits(roundtrip_lm, res.tokens, coding, bpw, n_bits) == payload


@pytest.mark.parametrize("coding", CODINGS)
def test_roundtrip_random_payloads_at_order_3(letter_texts, coding):
    # Order 3: embedding and extraction roll their context keys through two BOS of padding.
    lm = _letter_lm(letter_texts, order=3, alpha=0.5)
    embed = embed_flc if coding == "flc" else embed_vlc
    rng = np.random.default_rng(3)
    for bpw in (1, 3, 5):
        for i in range(20):
            n_bits = int(rng.integers(1, 40))
            payload = rng.integers(0, 2, n_bits).tolist()
            res = embed(lm, payload, bpw, max_len=128, seed=i)
            assert res.bits_consumed == n_bits
            assert extract_bits(lm, res.tokens, coding, bpw, n_bits) == payload


def test_extract_zero_bits_is_noop(roundtrip_lm):
    res = embed_flc(roundtrip_lm, [1, 0, 1], bpw=2, max_len=32, seed=0)
    assert extract_bits(roundtrip_lm, res.tokens, "flc", 2, 0) == []


@pytest.mark.parametrize("coding", ["flc", "vlc"])
def test_extract_desync_on_foreign_tokens(roundtrip_lm, coding):
    # A token that cannot be in any top-2 pool for this context desyncs.
    bad = [int(roundtrip_lm.support[-1])] * 4
    with pytest.raises(DesyncError, match="step"):
        extract_bits(roundtrip_lm, bad, coding, 1, 4)


@pytest.mark.parametrize("coding", ["flc", "vlc"])
def test_extract_desync_on_a_text_cut_short(roundtrip_lm, coding):
    embed = embed_flc if coding == "flc" else embed_vlc
    payload = np.random.default_rng(3).integers(0, 2, 24).tolist()
    res = embed(roundtrip_lm, payload, 1, max_len=128, seed=0)
    cut = res.tokens[: res.embed_steps - 1]
    with pytest.raises(DesyncError, match="ended after") as info:
        extract_bits(roundtrip_lm, cut, coding, 1, 24)
    assert info.value.step == len(cut)


def test_extract_wrong_bpw_breaks_checksum(roundtrip_lm):
    rng = np.random.default_rng(5)
    mismatches = 0
    for i in range(20):
        payload = rng.integers(0, 2, 24).tolist()
        res = embed_flc(roundtrip_lm, payload, bpw=3, max_len=128, seed=i)
        try:
            got = extract_bits(roundtrip_lm, res.tokens, "flc", bpw=2, n_bits=24)
            mismatches += got != payload
        except DesyncError:
            mismatches += 1
    assert mismatches > 0


@given(bpw=st.integers(1, 5), data=st.data())
@settings(max_examples=30, deadline=None)
def test_roundtrip_property_and_pool_membership(roundtrip_lm, bpw, data):
    payload = data.draw(st.lists(st.integers(0, 1), min_size=0, max_size=30))
    coding = data.draw(st.sampled_from(["flc", "vlc"]))
    embed = embed_flc if coding == "flc" else embed_vlc
    res = embed(roundtrip_lm, payload, bpw, max_len=128, seed=0)
    assert extract_bits(roundtrip_lm, res.tokens, coding, bpw, res.bits_consumed) == payload[: res.bits_consumed]
    # Every embedded token sits inside its step's candidate pool.
    history = []
    for tok in res.tokens[: res.embed_steps]:
        pool = roundtrip_lm.ranked_candidates(history, 1 << bpw)
        assert tok in pool
        history.append(tok)


# ---------------------------------------------------------------------------
# Step-code table
# ---------------------------------------------------------------------------


def _step_or_error(lm, key, bpw, coding, bits_left):
    try:
        return _step_code(lm, key, bpw, coding, bits_left)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("order, alpha", [(1, 0.0), (2, 0.5)])
def test_warm_step_code_table_matches_a_fresh_lm(letter_texts, order, alpha):
    warm = _letter_lm(letter_texts, order, alpha)
    rng = np.random.default_rng(order)
    texts = []
    for bpw in range(1, 6):
        for coding in CODINGS:
            embed = embed_flc if coding == "flc" else embed_vlc
            for i in range(8):
                payload = rng.integers(0, 2, int(rng.integers(1, 40))).tolist()
                try:
                    res = embed(warm, payload, bpw, max_len=64, seed=i)
                except ValueError:  # alpha 0: the walk reached a context with no candidates
                    continue
                assert extract_bits(warm, res.tokens, coding, bpw, res.bits_consumed) == payload[: res.bits_consumed]
                texts.append(res.tokens)
    fresh = _letter_lm(letter_texts, order, alpha)
    ids = [int(t) for t in warm.support]
    hits = 0
    for _ in range(400):
        if rng.random() < 0.5:
            text = texts[int(rng.integers(len(texts)))]
            history = list(text[: int(rng.integers(0, len(text) + 1))])
        else:
            history = rng.choice(ids, size=int(rng.integers(0, 4))).tolist()
        bpw, coding, bits_left = int(rng.integers(1, 6)), CODINGS[int(rng.integers(2))], int(rng.integers(1, 7))
        size = len(warm._step_codes)
        got = _step_or_error(warm, warm._context_key(history), bpw, coding, bits_left)
        hits += len(warm._step_codes) == size and not isinstance(got, str)
        assert got == _step_or_error(fresh, fresh._context_key(history), bpw, coding, bits_left)
    assert hits >= 100
    for step in warm._step_codes.values():
        assert step.by_code == {code: tok for tok, code in step.codes.items()}
        assert len(step.by_code) == len(step.codes)


def test_flc_narrowed_and_full_width_codes_of_one_context_stay_apart():
    vocab = _vocab("pqrs")
    lm = _ranked_lm(vocab, {"p": 8, "q": 4, "r": 2, "s": 1})
    p, q, r, s = vocab.encode(["p", "q", "r", "s"])
    start = lm._context_key([])
    narrow = _step_code(lm, start, 2, "flc", 1)
    full = _step_code(lm, start, 2, "flc", 2)
    assert narrow.codes == {p: (0,), q: (1,)} and narrow.by_code == {(0,): p, (1,): q}
    assert full.codes == {p: (0, 0), q: (0, 1), r: (1, 0), s: (1, 1)}
    assert _step_code(lm, start, 2, "flc", 1) is narrow
    assert _step_code(lm, start, 2, "flc", 6) is full  # every bits_left >= bpw codes at full width
    assert _step_code(lm, start, 2, "vlc", 1) is _step_code(lm, start, 2, "vlc", 6)  # VLC never narrows
    # Narrowed then full width in the context (r,): one embedding's last step, the next one's second.
    short = embed_flc(lm, [1, 0, 1], bpw=2, max_len=8, seed=0)
    long = embed_flc(lm, [1, 0, 1, 1], bpw=2, max_len=8, seed=0)
    assert short.tokens[:2] == (r, q) and long.tokens[:2] == (r, s)
    assert extract_bits(lm, short.tokens, "flc", 2, 3) == [1, 0, 1]
    assert extract_bits(lm, long.tokens, "flc", 2, 4) == [1, 0, 1, 1]


@pytest.mark.parametrize("coding", CODINGS)
def test_context_without_candidates_raises_every_time_and_stores_nothing(coding):
    vocab = _vocab("pq")
    p, q = vocab.encode(["p", "q"])
    lm = _lm_from_counts(vocab, {(BOS,): {p: 2, q: 1}, (p,): {EOS: 1}, (q,): {p: 1}})
    embed = embed_flc if coding == "flc" else embed_vlc
    start = _step_code(lm, lm._context_key([]), 1, coding, 1)
    assert start.codes == {p: (0,), q: (1,)}
    for _ in range(3):
        with pytest.raises(ValueError, match="no embedding candidates"):
            _step_code(lm, lm._context_key([p]), 1, coding, 1)
        with pytest.raises(ValueError, match="no embedding candidates"):
            embed(lm, [0, 0], bpw=1, max_len=8, seed=0)  # bit 0 picks p, whose context has none
        assert list(lm._step_codes.values()) == [start]


# ---------------------------------------------------------------------------
# build_domain_dataset
# ---------------------------------------------------------------------------


def _write_corpus(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def two_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    rng = np.random.default_rng(42)
    sea = "tide harbor mast sail gull rope deck wave storm anchor".split()
    farm = "plow seed barn wheat fence mule crop field grain cart".split()
    for name, words in (("sea", sea), ("farm", farm)):
        lines = []
        for _ in range(300):
            n = int(rng.integers(4, 10))
            lines.append(" ".join(rng.choice(words, size=n).tolist()) + " .")
        _write_corpus(root / f"{name}.txt", lines)
    return root / "sea.txt", root / "farm.txt"


def test_build_domain_dataset_counts_and_labels(two_corpora):
    sea, _ = two_corpora
    texts = tokenize_corpus(sea)
    data = DataConfig(
        domains={"S": str(sea)}, train=20, val=5, test=5, bpw=2, coding="flc",
        lm_order=1, alpha=0.5, max_len=32, payload_bits=(4, 12),
    )
    ds = build_domain_dataset(texts, "S", data, 0, build_vocab(texts, min_freq=1))
    assert ds.n_train == 40
    assert all(s.label == 0 for s in ds.train_cover)
    assert all(s.label == 1 and s.bpw == 2 for s in ds.train_stego)


def test_build_domain_dataset_deterministic(two_corpora, tmp_path):
    from stegadapt.corpus import dataset_to_jsonl

    sea, _ = two_corpora
    data = DataConfig(
        domains={"S": str(sea)}, train=10, val=2, test=2, bpw=1, coding="vlc",
        lm_order=1, alpha=0.5, max_len=32, payload_bits=(4, 12),
    )
    vocab = build_vocab(tokenize_corpus(sea), min_freq=1)
    a = build_domain_dataset(tokenize_corpus(sea), "S", data, 3, vocab)
    b = build_domain_dataset(tokenize_corpus(sea), "S", data, 3, vocab)
    assert a == b
    for name, dataset in (("a", a), ("b", b)):
        dataset_to_jsonl(dataset, tmp_path / f"{name}.jsonl", tmp_path / f"{name}_splits.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a_splits.jsonl").read_bytes() == (tmp_path / "b_splits.jsonl").read_bytes()


def test_two_domains_have_distinct_unigram_distributions(two_corpora):
    sea, farm = two_corpora
    data = DataConfig(
        domains={"S": str(sea), "F": str(farm)}, train=20, val=5, test=5, bpw=1, coding="flc",
        lm_order=1, alpha=0.5, max_len=32, payload_bits=(4, 12),
    )
    texts = [tokenize_corpus(path) for path in (sea, farm)]
    vocabs = [build_vocab(t, min_freq=1) for t in texts]
    datasets = [build_domain_dataset(t, dom, data, 1, vocab) for t, vocab, dom in zip(texts, vocabs, ("S", "F"))]

    def unigram(ds, vocab_size):
        counts = np.zeros(vocab_size)
        for s in ds.train_cover:
            for t in s.tokens:
                counts[t] += 1
        return counts / counts.sum()

    size = max(v.size for v in vocabs)
    tv = 0.5 * np.abs(unigram(datasets[0], size) - unigram(datasets[1], size)).sum()
    assert tv > 0
