"""Span recorder and call wrappers for the traced benchmark run.

A wrapper replaces a function or method by attribute name on the object its
caller reads it from. ``adapt`` and ``model`` import ``backward_batch``,
``adam_step`` and ``forward_batch`` by name, so those are patched in the
importing module, not in ``head``.

Every traced call records a span (name, start, end, parent, unit) in memory.
Self time is accumulated as each span ends: its duration minus the time its
child spans cover. Observers see a call's arguments and result after the
span has ended; their time is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("corpus", "stegogen", "encoder", "head", "model", "adapt", "experiment")
MAX_SPANS = 50_000  # spans kept in memory; later ones are counted as dropped


class Tracer:
    """In-memory spans plus per-name totals, self times, calls and counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.dropped = 0
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.observers: dict[str, list] = defaultdict(list)  # span name -> f(tracer, args, kwargs, result)
        self.enabled = False
        self.unit = -1
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _open(self) -> list:
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if frame[0] >= 0:
            parent_index = parent[0] if parent is not None else -1
            self.spans[frame[0]] = (name, start - self._origin, end - self._origin, parent_index, self.unit)
        else:
            self.dropped += 1

    def _observed(self, seconds: float) -> None:
        if self._stack:  # charge observer time to no layer
            self._stack[-1][1] += seconds

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def observe(self, span_name: str, fn) -> None:
        """Call ``fn(tracer, args, kwargs, result)`` after each traced call recorded as ``span_name``."""
        self.observers[span_name].append(fn)

    # -- patching -----------------------------------------------------------

    def patch(self, owner: object, attr: str, name) -> None:
        """Wrap ``owner.attr``; ``name`` is a span name or ``f(args, kwargs) -> name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            frame = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, span_name, start, time.perf_counter())
            observers = tracer.observers.get(span_name)
            if observers:
                begin = time.perf_counter()
                for fn in observers:
                    fn(tracer, args, kwargs, result)
                tracer._observed(time.perf_counter() - begin)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".", 1)[0] == layer)

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON lines after one header line, kept spans only."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, unit = span
                fh.write(
                    json.dumps({"i": index, "name": name, "start": round(start, 7), "end": round(end, 7),
                                "parent": parent, "unit": unit}) + "\n"
                )


class _Span:
    """``with tracer.span(name):`` around a call made by the benchmark itself."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self):
        if self.tracer.enabled:
            self.frame = self.tracer._open()
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer._close(self.frame, self.name, self.start, time.perf_counter())
        return False


def instrument(tracer: Tracer, sa) -> None:
    """Wrap the public functions of every layer that does work.

    ``sa`` is a namespace holding the ``stegadapt`` modules. ``config``,
    ``cli`` and ``metrics`` do negligible work and are not wrapped.
    ``experiment.prepare_data`` is timed by explicit spans in the datagen
    workload, which knows whether the cache is cold or warm.
    """
    corpus, stegogen, encoder, model, adapt, experiment = (
        sa.corpus, sa.stegogen, sa.encoder, sa.model, sa.adapt, sa.experiment
    )

    tracer.patch(corpus, "tokenize", "corpus.tokenize")
    tracer.patch(stegogen, "tokenize", "corpus.tokenize")
    tracer.patch(corpus, "build_vocab", "corpus.build_vocab")
    tracer.patch(stegogen, "make_splits", "corpus.make_splits")
    tracer.patch(experiment, "dataset_to_jsonl", "corpus.dataset_to_jsonl")
    tracer.observe("corpus.dataset_to_jsonl", _count_files("corpus.cache_bytes_written", 1))
    tracer.patch(experiment, "dataset_from_jsonl", "corpus.dataset_from_jsonl")
    tracer.observe("corpus.dataset_from_jsonl", _count_files("corpus.cache_bytes_read", 0))

    tracer.patch(experiment, "build_domain_dataset", "stegogen.build_domain_dataset")
    tracer.patch(stegogen, "fit_lm", "stegogen.fit_lm")
    tracer.patch(stegogen, "sample_cover", "stegogen.sample_cover")
    tracer.observe("stegogen.sample_cover", _observe_cover)
    tracer.patch(stegogen, "embed_flc", "stegogen.embed")
    tracer.patch(stegogen, "embed_vlc", "stegogen.embed")
    tracer.observe("stegogen.embed", _observe_embed)
    tracer.patch(stegogen, "extract_bits", "stegogen.extract_bits")
    tracer.observe("stegogen.extract_bits", _observe_extract)
    tracer.patch(stegogen, "huffman_codebook", "stegogen.huffman_codebook")

    tracer.patch(encoder.BuiltinEncoder, "encode_batch", "encoder.encode_batch")
    tracer.observe("encoder.encode_batch", _observe_encode)
    tracer.patch(encoder.BuiltinEncoder, "gradient_tensors", "encoder.gradient_tensors")

    tracer.patch(model, "forward_batch", _forward_name)
    tracer.observe("head.forward_batch.train", _observe_forward)
    tracer.observe("head.forward_batch.eval", _observe_forward)
    tracer.patch(adapt, "backward_batch", "head.backward_batch")
    tracer.patch(adapt, "adam_step", "head.adam_step")
    tracer.observe("head.adam_step", _observe_adam)

    tracer.patch(model.Classifier, "predict", "model.predict")
    tracer.observe("model.predict", _observe_predict)
    tracer.patch(model.Classifier, "clone", "model.clone")

    for fn in ("pretrain", "finetune", "estimate_pseudo_labels", "select_candidates", "evaluate_model"):
        tracer.patch(adapt, fn, f"adapt.{fn}")


def _count_files(counter: str, first_path_arg: int):
    def observe(tracer, args, kwargs, result):
        for path in args[first_path_arg : first_path_arg + 2]:
            tracer.count(counter, Path(path).stat().st_size)

    return observe


def _observe_cover(tracer, args, kwargs, result):
    tracer.count("stegogen.sample_cover.tokens", len(result))


def _observe_embed(tracer, args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    tracer.count("stegogen.embed.tokens", len(result.tokens))
    tracer.count("stegogen.embed.accepted", result.bits_consumed == len(payload) and bool(result.tokens))
    tracer.count("stegogen.embed.steps", result.embed_steps)
    tracer.count("stegogen.embed.degraded_steps", result.degraded_steps)


def _observe_extract(tracer, args, kwargs, result):
    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    tracer.count("stegogen.extract_bits.tokens", len(tokens))


def _observe_encode(tracer, args, kwargs, result):
    _, lengths, ids = result
    rows = ids.shape[0] * ids.shape[1]
    tracer.count("encoder.rows_x_steps", rows)
    tracer.count("encoder.padded_rows", rows - int(lengths.sum()))


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
    return f"head.forward_batch.{mode}"


def _observe_forward(tracer, args, kwargs, result):
    features = args[0]
    lengths = result.lengths
    rows = features.shape[0] * features.shape[1]
    tracer.count("head.rows_x_steps", rows)
    tracer.count(f"head.rows_x_steps.{result.mode}", rows)
    tracer.count(f"head.padded_rows.{result.mode}", rows - int(lengths.sum()))


def _observe_adam(tracer, args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    tracer.count("head.adam_step.elements", sum(g.size for g in grads.values()))


def _observe_predict(tracer, args, kwargs, result):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    tracer.count("model.predict.samples", len(samples))
