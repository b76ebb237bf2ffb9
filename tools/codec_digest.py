#!/usr/bin/env python3
"""SHA-256 digest of FLC and VLC round trips at every bits-per-word setting.

It fits an order-2, alpha-0.5 Markov LM on ``data/corpora/harbor.txt``, then
for each coding and each bpw from 1 to 5 embeds a fixed set of random payloads
(drawn from a fixed seed) and extracts them again. The digest covers every
stego text's token ids and every extracted bit string, in that order, so two
commits whose digests agree embed and extract identically. The round trips
then run a second time on the same LM, whose step-code table the first pass
filled; if their digests differ from the first pass's, the tool says so and
exits 1. Run from the repository root:

    PYTHONPATH=src python3 tools/codec_digest.py

It prints one line per coding and a last line for all of them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from stegadapt.corpus import build_vocab
from stegadapt.stegogen import CODINGS, embed_flc, embed_vlc, extract_bits, fit_lm, tokenize_corpus

HARBOR = Path(__file__).resolve().parents[1] / "data" / "corpora" / "harbor.txt"
PAYLOAD_SEED = 2019
PAYLOADS_PER_SETTING = 12
PAYLOAD_BITS = (8, 48)
MAX_LEN = 64


def fit_harbor_lm():
    """The order-2, alpha-0.5 LM over harbor.txt, with its min_freq=2 vocab."""
    texts = tokenize_corpus(HARBOR)
    vocab = build_vocab(texts, min_freq=2)
    return fit_lm([vocab.encode(t) for t in texts], vocab, order=2, alpha=0.5)


def codec_digests(lm) -> dict[str, str]:
    """Hex SHA-256 per coding over (stego tokens, extracted bits) of each round trip, bpw 1..5."""
    digests = {}
    for coding in CODINGS:
        embed = embed_flc if coding == "flc" else embed_vlc
        rng = np.random.default_rng(np.random.SeedSequence([PAYLOAD_SEED, CODINGS.index(coding)]))
        digest = hashlib.sha256()
        for bpw in range(1, 6):
            for _ in range(PAYLOADS_PER_SETTING):
                payload = rng.integers(0, 2, int(rng.integers(PAYLOAD_BITS[0], PAYLOAD_BITS[1] + 1))).tolist()
                result = embed(lm, payload, bpw, MAX_LEN, int(rng.integers(2**32)))
                bits = extract_bits(lm, result.tokens, coding, bpw, result.bits_consumed)
                digest.update(json.dumps([bpw, list(result.tokens), bits]).encode() + b"\n")
        digests[coding] = digest.hexdigest()
    return digests


def main() -> int:
    lm = fit_harbor_lm()
    digests = codec_digests(lm)
    for coding, digest in digests.items():
        print(f"{coding} {digest}")
    print(f"all {hashlib.sha256(''.join(digests.values()).encode()).hexdigest()}")
    if codec_digests(lm) != digests:
        print("error: the round trips on the warm LM differ from the first pass", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
