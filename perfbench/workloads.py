"""The four benchmark workloads.

Each workload sets up three times and reports the median, runs one
warm-up unit of work, then repeats the unit until its time is spent. Every
unit of a run gets the same inputs, made from the seed, so units are
comparable and each repeat is also a rerun check. Every set-up and unit
time is scaled to the reference kernels' nominal speed (``yardstick``).

- ``datagen``: a cold ``experiment.prepare_data`` of ``configs/desk.json``
  into an empty cache, then a warm reload of that cache.
- ``pretrain``: one ``adapt.pretrain`` epoch on the H source (source-val
  pass included), then an O-test evaluation outside the timed part.
- ``adapt``: ``adapt.finetune`` H -> O from a checkpoint pretrained during
  set-up, with the encoder frozen.
- ``codec``: ``embed_flc``/``embed_vlc`` plus ``extract_bits`` round trips
  at bpw 1..5 on an LM fit to a bundled corpus.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from tracing import Tracer
from yardstick import Yardstick

CONFIG = "configs/desk.json"
SOURCE, TARGET = "H", "O"
SETUP_REPS = 3
ADAPT_SETUP_EPOCHS = 1   # from one source epoch a later round won on 7 of 20 proof seeds
ADAPT_ROUNDS = 2         # finetune rounds per unit: m = 400, 800
CODEC_CORPUS = "data/corpora/harbor.txt"
CODEC_CASES_PER_SETTING = 100  # per (coding, bpw) pair, 1,000 round trips per unit
CODEC_PAYLOAD_BITS = (16, 48)  # package defaults
CODEC_MAX_LEN = 64
UNIT_SPAN = "bench.unit"   # encloses the timed part of each unit; per-layer shares divide by it


def desk_config(config_module, seed: int):
    """``configs/desk.json`` with its data-generation seed set to ``seed``."""
    cfg = config_module.load_config(CONFIG)
    return replace(cfg, data=replace(cfg.data, seed=seed))


@dataclass
class Context:
    """State one workload run shares with the runner."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    sa: SimpleNamespace
    tracer: Tracer
    yard: Yardstick
    make_cache: Callable[[Path], None]   # writes the desk dataset cache in a child process
    import_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    unit_factor: list[float] = field(default_factory=list)   # kernel slowness around each unit, warm-up first
    named: dict[str, tuple[float, str]] = field(default_factory=dict)   # printed by name
    layer: dict[str, float] = field(default_factory=dict)               # extra per-layer values

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok

    def config(self):
        return desk_config(self.sa.config, self.seed)

    def timed_setup(self, setup):
        """Median over ``SETUP_REPS`` scaled runs of ``setup`` plus import time; returns (s, last result)."""
        times = []
        result = None
        self.yard.start()
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            result = setup()
            times.append(self.yard.scale(time.perf_counter() - start))
        return self.import_s + statistics.median(times), result

    def untraced(self):
        return _Paused(self.tracer)


class _Paused:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.was = self.tracer.enabled
        self.tracer.enabled = False

    def __exit__(self, *exc):
        self.tracer.enabled = self.was
        return False


@dataclass
class Outcome:
    setup_s: float
    unit_s: list[float]          # untraced units
    traced_unit_s: list[float]   # traced units (trace runs only)


def _repeat(ctx: Context, unit, budget: float, min_reps: int, first: int = 0) -> list[float]:
    """Run ``unit(rep)`` until another unit would overrun ``budget``; at least ``min_reps``.

    ``unit`` returns the wall seconds of its timed part; this returns them
    scaled by the reference kernels. The wall time of whole units, checks and
    kernels included, decides whether another one fits.
    """
    times: list[float] = []
    walls: list[float] = []
    begin = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - begin + statistics.median(walls) <= budget:
        ctx.tracer.unit = first + len(times)
        start = time.perf_counter()
        try:
            elapsed = unit(first + len(times))
        except Exception:  # the unit's public call failed: record it and stop measuring
            ctx.failed += 1
            ctx.problems.append(f"unit {first + len(times)} raised:\n{traceback.format_exc()}")
            break
        times.append(ctx.yard.scale(elapsed))
        ctx.unit_factor.append(ctx.yard.factor)
        walls.append(time.perf_counter() - start)
    return times


def _measure(ctx: Context, unit) -> tuple[list[float], list[float]]:
    """A discarded warm-up unit, then untraced units, or in a trace run half
    untraced and half traced. The warm-up counts against ``--seconds``."""
    begin = time.perf_counter()
    ctx.yard.start()
    if not _repeat(ctx, unit, 0.0, 1):
        return [], []
    budget = ctx.seconds - (time.perf_counter() - begin)
    if not ctx.trace:
        return _repeat(ctx, unit, budget, 2, first=1), []
    base = _repeat(ctx, unit, budget / 2, 1, first=1)
    if ctx.problems:
        return base, []
    ctx.tracer.enabled = True
    try:
        traced = _repeat(ctx, unit, budget / 2, 1, first=1 + len(base))
    finally:
        ctx.tracer.enabled = False
    return base, traced


def _same(values: list, what: str, ctx: Context) -> None:
    ctx.check(all(v == values[0] for v in values), f"{what} differs between reruns with the same seed: {values}")


# ---------------------------------------------------------------------------
# datagen
# ---------------------------------------------------------------------------


def _dataset_digest(data) -> str:
    """Ids, tokens, labels and split membership of every domain, plus the vocab."""
    digest = hashlib.sha256(repr(data.vocab.id_to_token).encode())
    for tag in sorted(data.datasets):
        ds = data.datasets[tag]
        for part in ("train_cover", "train_stego", "val_cover", "val_stego", "test_cover", "test_stego"):
            rows = [(s.id, s.tokens, s.label, s.bpw, s.domain) for s in getattr(ds, part)]
            digest.update(f"{tag}/{part}:{rows!r}".encode())
    return digest.hexdigest()


def datagen(ctx: Context) -> Outcome:
    sa = ctx.sa
    setup_s, cfg = ctx.timed_setup(ctx.config)
    sizes = cfg.data.sizes
    n_samples = 2 * sum(sizes.values()) * len(cfg.data.domain_tags())
    cold_s, warm_s, digests = [], [], []
    first = {}

    def unit(rep: int) -> float:
        cache = ctx.work / f"datagen-{rep}"
        ctx.attempted += 2
        with ctx.tracer.span(UNIT_SPAN):
            start = time.perf_counter()
            with ctx.tracer.span("experiment.prepare_data.cold"):
                cold = sa.experiment.prepare_data(cfg, cache)
            middle = time.perf_counter()
            with ctx.tracer.span("experiment.prepare_data.warm"):
                warm = sa.experiment.prepare_data(cfg, cache)
            end = time.perf_counter()
        cold_s.append(middle - start)
        warm_s.append(end - middle)
        cold_digest = _dataset_digest(cold)
        ctx.check(cold_digest == _dataset_digest(warm), "warm reload differs from the cold output")
        for tag, ds in cold.datasets.items():
            for split in ("val", "test"):
                n_cover, n_stego = len(getattr(ds, f"{split}_cover")), len(getattr(ds, f"{split}_stego"))
                ctx.check(n_cover == n_stego == sizes[split], f"{tag} {split} has {n_cover} cover / {n_stego} stego")
        total = sum(len(ds.train) + len(ds.val) + len(ds.test) for ds in cold.datasets.values())
        ctx.check(total == n_samples, f"generated {total} samples, expected {n_samples}")
        digests.append(cold_digest)
        if not first:
            first["data"] = cold
        shutil.rmtree(cache)
        return end - start

    base, traced = _measure(ctx, unit)
    _same(digests, "generated dataset", ctx)
    if base:  # unit 0 is the warm-up
        factors = ctx.unit_factor[1 : 1 + len(base)]
        cold = [t / f for t, f in zip(cold_s[1 : 1 + len(base)], factors)]
        warm = [t / f for t, f in zip(warm_s[1 : 1 + len(base)], factors)]
        ctx.named["gen_samples_per_s"] = (n_samples / statistics.median(cold), "1/s")
        ctx.named["cache_load_s"] = (statistics.median(warm), "s")
    if first:
        ctx.layer["stegogen.distinct_text_share"] = _distinct_share(first["data"])
    return Outcome(setup_s, base, traced)


def _distinct_share(data) -> float:
    texts = [s.tokens for ds in data.datasets.values() for s in ds.train + ds.val + ds.test]
    return len(set(texts)) / len(texts)


# ---------------------------------------------------------------------------
# pretrain and adapt
# ---------------------------------------------------------------------------


def _training_setup(ctx: Context):
    """Config, a warm load of the cache made by the fixture, and a fresh model."""
    sa = ctx.sa
    cfg = ctx.config()
    data = sa.experiment.prepare_data(cfg, ctx.work / "cache")
    model = sa.experiment.build_model(cfg, data, sa.experiment.TaskSpec(SOURCE, TARGET), ctx.seed)
    return cfg, data, model


def _losses_finite(ctx: Context, log: list[dict], what: str) -> None:
    losses = [rec["train_loss"] for rec in log]
    ctx.check(bool(losses) and all(math.isfinite(x) for x in losses), f"{what}: non-finite or missing losses {losses}")


def pretrain(ctx: Context) -> Outcome:
    sa = ctx.sa
    ctx.make_cache(ctx.work / "cache")
    setup_s, (cfg, data, model) = ctx.timed_setup(lambda: _training_setup(ctx))
    source, target = data.datasets[SOURCE], data.datasets[TARGET]
    train_cfg = replace(cfg.train, pretrain_epochs=1, seed=ctx.seed)
    scores = []

    def unit(rep: int) -> float:
        ctx.attempted += 1
        with ctx.tracer.span(UNIT_SPAN):
            start = time.perf_counter()
            result = sa.adapt.pretrain(model, source.train, source.val, train_cfg)
            elapsed = time.perf_counter() - start
        _losses_finite(ctx, result.log, "pretrain")
        with ctx.untraced():
            ctx.attempted += 1
            metrics = sa.adapt.evaluate_model(result.model, target.test, cfg.train.eval_batch_size)
        scores.append((metrics.acc.hex(), metrics.f1.hex()))
        return elapsed

    base, traced = _measure(ctx, unit)
    _same(scores, "O-test ACC/F1 after pretraining", ctx)
    if base:
        ctx.named["pretrain_epoch_s"] = (statistics.median(base), "s")
    if scores:
        acc, f1 = (float.fromhex(x) for x in scores[0])
        ctx.named["acc_pretrained"] = (acc, "ratio")
        ctx.layer.update({"model.test_acc": acc, "model.test_f1": f1})
    return Outcome(setup_s, base, traced)


def _adapt_setup(ctx: Context):
    """The training set-up plus the source pretraining that gives ``finetune`` its checkpoint."""
    cfg, data, model = _training_setup(ctx)
    source = data.datasets[SOURCE]
    pre_cfg = replace(cfg.train, pretrain_epochs=ADAPT_SETUP_EPOCHS, seed=ctx.seed)
    return cfg, data, ctx.sa.adapt.pretrain(model, source.train, source.val, pre_cfg)


def adapt(ctx: Context) -> Outcome:
    sa = ctx.sa
    ctx.make_cache(ctx.work / "cache")
    setup_s, (cfg, data, pre) = ctx.timed_setup(lambda: _adapt_setup(ctx))
    target = data.datasets[TARGET]
    _losses_finite(ctx, pre.log, "set-up pretraining")

    pool = sa.corpus.strip_labels(target.train)
    withheld = {s.id: s.label for s in target.train}   # scored from outside; never passed in
    ft_cfg = replace(cfg.train, finetune_rounds=ADAPT_ROUNDS, seed=ctx.seed)
    outcomes = []
    rounds = {"n": 0, "pool": 0.0}

    def on_pool(tracer, args, kwargs, result):
        rounds["pool"] = _pl_precision(result.entries, withheld)

    def on_select(tracer, args, kwargs, result):
        rounds["n"] += 1
        r = rounds["n"]
        ctx.layer.setdefault(f"adapt.pl_precision.pool.r{r}", rounds["pool"])
        ctx.layer.setdefault(f"adapt.pl_precision.selected.r{r}", _pl_precision(result, withheld))

    ctx.tracer.observe("adapt.estimate_pseudo_labels", on_pool)
    ctx.tracer.observe("adapt.select_candidates", on_select)

    def unit(rep: int) -> float:
        rounds["n"] = 0
        ctx.attempted += 1
        with ctx.tracer.span(UNIT_SPAN):
            begin = time.perf_counter()
            result = sa.adapt.finetune(pre.model, pool, target.val, ft_cfg)
            elapsed = time.perf_counter() - begin
        _losses_finite(ctx, result.log, "finetune")
        with ctx.untraced():
            ctx.attempted += 1
            metrics = sa.adapt.evaluate_model(result.model, target.test, cfg.train.eval_batch_size)
        outcomes.append((metrics.acc.hex(), metrics.f1.hex(), result.best_index))
        return elapsed / ADAPT_ROUNDS

    base, traced = _measure(ctx, unit)
    _same(outcomes, "O-test ACC/F1 and best round after adaptation", ctx)
    if base:
        ctx.named["finetune_round_s"] = (statistics.median(base), "s")
    if outcomes:
        acc, f1 = float.fromhex(outcomes[0][0]), float.fromhex(outcomes[0][1])
        ctx.named["acc_adapted"] = (acc, "ratio")
        ctx.named["f1_adapted"] = (f1, "ratio")
        ctx.named["best_round"] = (outcomes[0][2], "index")
        ctx.layer.update({"model.test_acc": acc, "model.test_f1": f1, "adapt.best_index": outcomes[0][2]})
    return Outcome(setup_s, base, traced)


def _pl_precision(entries, withheld: dict) -> float:
    return sum(e.label == withheld[e.sample_id] for e in entries) / len(entries)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def _fit_codec_lm(sa):
    lines = Path(CODEC_CORPUS).read_text(encoding="utf-8").splitlines()
    texts = [toks for toks in (sa.corpus.tokenize(line) for line in lines) if toks]
    vocab = sa.corpus.build_vocab(texts)
    return sa.stegogen.fit_lm([vocab.encode(t) for t in texts], vocab)


def _codec_cases(seed: int) -> list[tuple[str, int, list[int], int]]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE]))
    lo, hi = CODEC_PAYLOAD_BITS
    cases = []
    for bpw in range(1, 6):
        for coding in ("flc", "vlc"):
            for _ in range(CODEC_CASES_PER_SETTING):
                payload = rng.integers(0, 2, int(rng.integers(lo, hi + 1))).tolist()
                cases.append((coding, bpw, payload, int(rng.integers(2**32))))
    return cases


def codec(ctx: Context) -> Outcome:
    sa = ctx.sa
    stegogen = sa.stegogen
    setup_s, lm = ctx.timed_setup(lambda: _fit_codec_lm(sa))
    cases = _codec_cases(ctx.seed)
    digests = []
    first = []

    def unit(rep: int) -> float:
        emitted = []
        mismatches = 0
        with ctx.tracer.span(UNIT_SPAN):
            start = time.perf_counter()
            for coding, bpw, payload, embed_seed in cases:
                embed = stegogen.embed_flc if coding == "flc" else stegogen.embed_vlc
                try:
                    result = embed(lm, payload, bpw, CODEC_MAX_LEN, embed_seed)
                    bits = stegogen.extract_bits(lm, result.tokens, coding, bpw, len(payload))
                except sa.errors.StegadaptError:
                    result, bits = None, None
                mismatches += bits != payload
                emitted.append(result)
            elapsed = time.perf_counter() - start
        ctx.attempted += 2 * len(cases)
        ctx.failed += mismatches
        if mismatches:
            ctx.problems.append(f"unit {rep}: {mismatches} of {len(cases)} round trips lost their payload")
        digests.append(hashlib.sha256(repr([r and r.tokens for r in emitted]).encode()).hexdigest())
        if not first:
            first.extend(emitted)
        return elapsed

    base, traced = _measure(ctx, unit)
    _same(digests, "stego tokens", ctx)
    if first and all(first):
        bits = sum(r.bits_consumed for r in first)
        capacity = sum(r.embed_steps * bpw for r, (_, bpw, _, _) in zip(first, cases))
        ctx.layer["stegogen.bits_per_capacity"] = bits / capacity
    if base:
        ctx.named["codec_roundtrips_per_s"] = (len(cases) / statistics.median(base), "1/s")
    return Outcome(setup_s, base, traced)


WORKLOADS = {"datagen": datagen, "pretrain": pretrain, "adapt": adapt, "codec": codec}


def import_seconds(root: Path, env: dict, reps: int = 5) -> float:
    """Median time to import the package in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import stegadapt; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)
