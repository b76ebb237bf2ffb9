"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths: optimal prefix-code
length is computed from the complete list of full-binary-tree depth profiles,
gradients are checked by central finite differences on the public loss, and
model equality, encoder checksums, single-sample features, the embedding
gradient as a scatter of whole rows, the per-sample loss and the full
next-token distribution are computed from public tensors and
``step_probs``, the LM's sampling and candidate ranking are
recomputed from its raw ``counts`` by an inverse CDF and a full sort,
tokenization is redone one character at a time, and the Bi-LSTM step loops
are kept in their earlier direction-major layout.
"""

from __future__ import annotations

import hashlib
import unicodedata

import numpy as np

from stegadapt.corpus import BOS, EOS, PAD, UNK
from stegadapt.encoder import sinusoidal_positions
from stegadapt.head import LOG_EPS

# Depth multisets of all full binary trees with n <= 4 leaves. An optimal
# prefix code is always a full tree, so minimizing expected length over these
# profiles (best assignment pairs the largest weight with the smallest depth)
# is exact brute force for small pools.
_DEPTH_PROFILES = {
    1: [[0]],
    2: [[1, 1]],
    3: [[1, 2, 2]],
    4: [[1, 2, 3, 3], [2, 2, 2, 2]],
}


def optimal_prefix_weighted_length(weights: list[int]) -> int:
    """Minimal sum(weight * codeword length) over all prefix codes, exactly.

    Works on integer weights so the comparison with a Huffman codebook's
    weighted length is exact integer arithmetic.
    """
    n = len(weights)
    if n not in _DEPTH_PROFILES:
        raise ValueError(f"brute-force oracle only covers pool sizes 1..4, got {n}")
    ordered = sorted(weights, reverse=True)
    best = None
    for profile in _DEPTH_PROFILES[n]:
        cost = sum(w * d for w, d in zip(ordered, sorted(profile)))
        best = cost if best is None else min(best, cost)
    return best


def codebook_weighted_length(codebook: dict[int, tuple[int, ...]], weights: dict[int, int]) -> int:
    return sum(weights[tok] * len(code) for tok, code in codebook.items())


def central_difference_grads(loss_fn, tensors: dict[str, np.ndarray], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Numerical gradient of ``loss_fn()`` with respect to every tensor entry.

    ``loss_fn`` must read the tensors in place; entries are perturbed one at
    a time with a central difference of the given step.
    """
    grads = {}
    for name, tensor in tensors.items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn()
            flat[i] = original - step
            down = loss_fn()
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * step)
        grads[name] = grad
    return grads


def max_gradient_mismatch(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray], floor: float = 1e-5
) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    The denominator is floored so that near-zero gradients are compared on an
    absolute scale where finite differences are still trustworthy.
    """
    worst = 0.0
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def models_equal(a, b) -> bool:
    """Bitwise equality of every head tensor and of the builtin embedding table."""
    if a.head.tensors.keys() != b.head.tensors.keys():
        return False
    if any(a.head.tensors[k].tobytes() != b.head.tensors[k].tobytes() for k in a.head.tensors):
        return False
    ta = getattr(a.encoder, "table", None)
    tb = getattr(b.encoder, "table", None)
    if (ta is None) != (tb is None):
        return False
    return ta is None or ta.tobytes() == tb.tobytes()


def encoder_checksum(encoder) -> str:
    """SHA-256 of a builtin encoder's embedding table and its shape."""
    digest = hashlib.sha256()
    digest.update(str(encoder.table.shape).encode())
    digest.update(np.ascontiguousarray(encoder.table).tobytes())
    return digest.hexdigest()


def encode_single(encoder, sample) -> np.ndarray:
    """The (len(tokens), d_h) features of one sample, the oracle for a row of ``encode_batch``.

    Each token's row of a builtin encoder's table (UNK's row for an id outside
    it) plus the sinusoidal code of its position.
    """
    ids = np.asarray(sample.tokens, dtype=np.int64)
    ids = np.where((ids < 0) | (ids >= encoder.vocab_size), UNK, ids)
    return encoder.table[ids] + sinusoidal_positions(len(ids), encoder.d_h)


def embedding_gradient_by_rows(encoder, ids, d_features, lengths) -> np.ndarray:
    """The oracle for ``BuiltinEncoder.gradient_tensors``: a 2-D ``np.add.at`` of whole rows, PAD's row zeroed."""
    grad = np.zeros_like(encoder.table)
    mask = np.arange(ids.shape[1])[None, :] < lengths[:, None]
    np.add.at(grad, ids[mask], d_features[mask].astype(grad.dtype))
    grad[PAD] = 0.0
    return grad


def loss_ce(pred, label: int) -> float:
    """Binary cross-entropy of one prediction with the stego probability, clamped before logs."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    p = float(np.clip(pred[1], LOG_EPS, 1.0 - LOG_EPS))
    return -(label * np.log(p) + (1 - label) * np.log(1.0 - p))


def context_key(lm, history) -> tuple[int, ...]:
    """The LM's context key after ``history``: its last ``order`` ids, padded with BOS."""
    return ((BOS,) * lm.order + tuple(int(t) for t in history))[-lm.order :]


def next_distribution(lm, history) -> tuple[np.ndarray, np.ndarray]:
    """The LM's full smoothed next-token distribution (ids, probs) after ``history``."""
    return lm.support.copy(), lm.step_probs(context_key(lm, history), lm.support)


def _raw_context(lm, history) -> dict[int, int]:
    """The raw next-token counts after ``history``."""
    return lm.counts.get(context_key(lm, history), {})


def inverse_cdf_next(lm, history, u: float) -> int:
    """The token ``sample_next`` must draw for the uniform variate ``u`` in [0, 1).

    Observed continuations take the first ``total`` units of mass in id order,
    then each supported id takes ``alpha`` units.
    """
    counts = _raw_context(lm, history)
    ids = sorted(counts)
    total = sum(counts.values())
    support = [t for t in range(lm.vocab.size) if t not in (PAD, BOS)]
    x = u * (total + lm.alpha * len(support))
    if x < total:
        idx = int(np.searchsorted(np.cumsum([counts[i] for i in ids]), x, side="right"))
        return ids[min(idx, len(ids) - 1)]
    return support[min(int((x - total) // lm.alpha), len(support) - 1)]


def sorted_candidates(lm, history, n: int) -> list[int]:
    """Top-n non-EOS tokens by a full sort of the raw counts, then unseen ids ascending when smoothed."""
    counts = _raw_context(lm, history)
    ranked = sorted((t for t in counts if t != EOS), key=lambda t: (-counts[t], t))
    if lm.alpha > 0:
        ranked += [t for t in range(lm.vocab.size) if t not in counts and t not in (PAD, BOS, EOS)]
    return ranked[:n]


def tokenize_by_char(text: str) -> list[str]:
    """Lowercase, split on whitespace, and emit each punctuation character (category P*) as its own token.

    Every character of every chunk is looked at, so this is the reference for
    any shortcut ``tokenize`` takes over whole chunks.
    """
    out: list[str] = []
    for chunk in text.lower().split():
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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def run_directions_direction_major(x_pair, wx, wh, b, offsets) -> dict[str, np.ndarray]:
    """Both directions of one Bi-LSTM layer over the packed rows, every array (2, N, ·).

    The reference for ``head._run_directions``: the same operations in the
    same order, with each direction's activations in a block of its own, so
    a step's rows are two strided slices instead of one contiguous block.
    """
    rows = x_pair.shape[1]
    h = wh.shape[2]
    zx = np.matmul(x_pair, wx.transpose(0, 2, 1)) + b[:, None, :]
    sig = np.empty((2, rows, 3 * h), dtype=zx.dtype)
    cand = np.empty((2, rows, h), dtype=zx.dtype)
    cell = np.empty((2, rows, h), dtype=zx.dtype)
    tanh_cell = np.empty((2, rows, h), dtype=zx.dtype)
    hidden = np.empty((2, rows, h), dtype=zx.dtype)
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
    bounds = offsets.tolist()
    for t in range(len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        z = zx[:, lo:hi]
        if t:
            prev = slice(bounds[t - 1], bounds[t - 1] + hi - lo)
            z = z + np.matmul(hidden[:, prev], wh_t)
        sig_t = _sigmoid(z[:, :, : 3 * h], out=sig[:, lo:hi])
        cand_t = np.tanh(z[:, :, 3 * h :], out=cand[:, lo:hi])
        cell_t = cell[:, lo:hi]
        np.multiply(sig_t[:, :, :h], cand_t, out=cell_t)
        if t:
            cell_t += sig_t[:, :, h : 2 * h] * cell[:, prev]
        tanh_t = np.tanh(cell_t, out=tanh_cell[:, lo:hi])
        np.multiply(sig_t[:, :, 2 * h :], tanh_t, out=hidden[:, lo:hi])
    return {"x": x_pair, "sig": sig, "cand": cand, "cell": cell, "tanh_cell": tanh_cell, "hidden": hidden}


def bptt_directions_direction_major(cache, dh_out, wx, wh, offsets, carried):
    """Backprop through both directions with (2, N, ·) arrays, the reference for ``head._bptt_directions``.

    ``cache`` is what :func:`run_directions_direction_major` returns and
    ``dh_out`` is (2, N, h). Returns ``dwx, dwh, db, dx``.
    """
    bounds = offsets.tolist()
    batch = bounds[1]
    h = wh.shape[2]
    dtype = dh_out.dtype
    dz = np.empty((2, dh_out.shape[1], 4 * h), dtype=dtype)
    dh_carry = np.zeros((2, batch, h), dtype=dtype)
    dc_carry = np.zeros((2, batch, h), dtype=dtype)
    for t in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        n = hi - lo
        sig_t = cache["sig"][:, lo:hi]
        tanh_t = cache["tanh_cell"][:, lo:hi]
        cand_t = cache["cand"][:, lo:hi]
        dh = dh_out[:, lo:hi] + dh_carry[:, :n]
        dc = dc_carry[:, :n] + dh * sig_t[:, :, 2 * h :] * (1.0 - tanh_t * tanh_t)
        d_pre = np.empty((2, n, 3 * h), dtype=dtype)
        d_pre[:, :, :h] = dc * cand_t
        if t:
            d_pre[:, :, h : 2 * h] = dc * cache["cell"][:, bounds[t - 1] : bounds[t - 1] + n]
        else:
            d_pre[:, :, h : 2 * h] = 0.0
        d_pre[:, :, 2 * h :] = dh * tanh_t
        dz_t = dz[:, lo:hi]
        dz_t[:, :, : 3 * h] = d_pre * sig_t * (1.0 - sig_t)
        dz_t[:, :, 3 * h :] = dc * sig_t[:, :, :h] * (1.0 - cand_t * cand_t)
        dh_carry[:, :n] = np.matmul(dz_t, wh)
        dc_carry[:, :n] = dc * sig_t[:, :, h : 2 * h]
    dz_cols = dz.transpose(0, 2, 1)
    dwx = np.matmul(dz_cols, cache["x"])
    dwh = np.matmul(dz_cols[:, :, batch:], cache["hidden"][:, carried])
    db = dz.sum(axis=1)
    dx = np.matmul(dz, wx)
    return dwx, dwh, db, dx
