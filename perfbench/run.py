"""Benchmark entry point: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload datagen --seed 1 --seconds 15 --trace 0

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` measures some units untraced and
then the same units with every layer's public functions wrapped, and
reports the per-layer metrics. Workloads and metrics are described in
``perfbench/README.md``.

Exit codes: 0 with a result line (``"correct": false`` when an output check
failed), 2 when the tree lacks the package, configs or corpora, 1 on any
other error or on the time limit, without a result line.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, so BLAS starts single-threaded
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True

import tracing  # noqa: E402  (after the thread pinning: workloads imports numpy)
import workloads  # noqa: E402
import yardstick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/stegadapt/__init__.py", "configs/desk.json", "data/corpora/harbor.txt", "data/corpora/orchard.txt")
MODULES = ("config", "corpus", "stegogen", "encoder", "head", "model", "adapt", "experiment", "errors")
TIME_LIMIT_S = 170
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

# (name, unit). ``.share`` is a span's inclusive time and ``.self_share`` a
# layer's self time, as shares of the traced units' timed part (the
# ``bench.unit`` spans); counts are per traced unit of work.
PER_LAYER = (
    ("corpus.tokenize.share", "ratio"),
    ("corpus.tokenize.calls", "count"),
    ("corpus.build_vocab.share", "ratio"),
    ("corpus.make_splits.share", "ratio"),
    ("corpus.dataset_to_jsonl.share", "ratio"),
    ("corpus.cache_bytes_written", "bytes"),
    ("corpus.dataset_from_jsonl.share", "ratio"),
    ("corpus.cache_bytes_read", "bytes"),
    ("stegogen.calls", "count"),
    ("stegogen.build_domain_dataset.share", "ratio"),
    ("stegogen.fit_lm.share", "ratio"),
    ("stegogen.sample_cover.share", "ratio"),
    ("stegogen.sample_cover.tokens", "count"),
    ("stegogen.embed.share", "ratio"),
    ("stegogen.embed.tokens", "count"),
    ("stegogen.embed.calls", "count"),
    ("stegogen.embed.accept_ratio", "ratio"),
    ("stegogen.degraded_step_share", "ratio"),
    ("stegogen.extract_bits.share", "ratio"),
    ("stegogen.extract_bits.tokens", "count"),
    ("stegogen.huffman_codebook.share", "ratio"),
    ("stegogen.huffman_codebook.calls", "count"),
    ("stegogen.distinct_text_share", "ratio"),
    ("stegogen.bits_per_capacity", "ratio"),
    ("encoder.encode_batch.share", "ratio"),
    ("encoder.encode_batch.calls", "count"),
    ("encoder.padded_row_share", "ratio"),
    ("encoder.gradient_tensors.share", "ratio"),
    ("encoder.gradient_tensors.calls", "count"),
    ("head.forward_batch.train.share", "ratio"),
    ("head.forward_batch.train.calls", "count"),
    ("head.forward_batch.eval.share", "ratio"),
    ("head.forward_batch.eval.calls", "count"),
    ("head.backward_batch.share", "ratio"),
    ("head.rows_x_steps", "count"),
    ("head.padded_row_share.train", "ratio"),
    ("head.padded_row_share.eval", "ratio"),
    ("head.adam_step.share", "ratio"),
    ("head.adam_step.elements", "count"),
    ("model.predict.share", "ratio"),
    ("model.predict.samples", "count"),
    ("model.clone.share", "ratio"),
    ("model.clone.calls", "count"),
    ("model.test_acc", "ratio"),
    ("model.test_f1", "ratio"),
    ("adapt.pretrain.share", "ratio"),
    ("adapt.finetune.share", "ratio"),
    ("adapt.estimate_pseudo_labels.share", "ratio"),
    ("adapt.select_candidates.share", "ratio"),
    ("adapt.evaluate_model.share", "ratio"),
    ("adapt.pl_precision.pool.r1", "ratio"),
    ("adapt.pl_precision.pool.r2", "ratio"),
    ("adapt.pl_precision.selected.r1", "ratio"),
    ("adapt.pl_precision.selected.r2", "ratio"),
    ("adapt.best_index", "index"),
    ("experiment.prepare_data.cold.share", "ratio"),
    ("experiment.prepare_data.warm.share", "ratio"),
    ("corpus.self_share", "ratio"),
    ("stegogen.self_share", "ratio"),
    ("encoder.self_share", "ratio"),
    ("head.self_share", "ratio"),
    ("model.self_share", "ratio"),
    ("adapt.self_share", "ratio"),
    ("experiment.self_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.predictions_failed", "count"),
)

# Zero-call predictions checked by every trace run: (workloads, metric, claim).
PREDICTIONS = (
    (("pretrain", "adapt"), "stegogen.calls", "stegogen gets no calls"),
    (("adapt",), "encoder.gradient_tensors.calls", "the frozen encoder gets no gradient"),
    (("datagen",), "stegogen.huffman_codebook.calls", "FLC data generation builds no Huffman code"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _make_cache_in_child(seed: int):
    """Generate the training workloads' dataset in a child process.

    Keeps data generation out of the measured process, so its memory peak
    and heap do not leak into the training workloads' numbers.
    """

    def make(cache_dir: Path) -> None:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--make-cache", str(cache_dir), "--seed", str(seed)],
            cwd=ROOT, env=_child_env(), check=True, timeout=120, stdout=subprocess.DEVNULL,
        )

    return make


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = "unknown (git failed)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "loadavg_start": list(os.getloadavg()),
    }


def _per_layer(ctx, outcome) -> dict[str, dict]:
    tracer = ctx.tracer
    units = max(1, len(outcome.traced_unit_s))
    calls, total, counters = tracer.calls, tracer.total_s, tracer.counters

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    unit_s = total.get(workloads.UNIT_SPAN, 0.0)
    seconds = {name: t / units for name, t in total.items()}
    seconds.update({f"{layer}.self": t / units for layer, t in tracer.layer_self_s().items()})
    values = {}
    for name, _ in PER_LAYER:
        if name.endswith(".share"):
            values[name] = share(total.get(name[: -len(".share")], 0.0), unit_s)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0) / units
        elif name in counters:
            values[name] = counters[name] / units
    values["stegogen.calls"] = tracer.layer_calls("stegogen") / units
    values["stegogen.embed.accept_ratio"] = share(counters["stegogen.embed.accepted"], calls.get("stegogen.embed", 0))
    values["stegogen.degraded_step_share"] = share(counters["stegogen.embed.degraded_steps"], counters["stegogen.embed.steps"])
    values["encoder.padded_row_share"] = share(counters["encoder.padded_rows"], counters["encoder.rows_x_steps"])
    for mode in ("train", "eval"):
        values[f"head.padded_row_share.{mode}"] = share(counters[f"head.padded_rows.{mode}"], counters[f"head.rows_x_steps.{mode}"])
    for layer, self_s in tracer.layer_self_s().items():
        values[f"{layer}.self_share"] = share(self_s, unit_s)
    for name, value in sorted(seconds.items()):
        print(f"seconds {name} = {value:.6g} s per traced unit")
    base, traced = outcome.unit_s, outcome.traced_unit_s
    values["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(base) - 1.0 if base and traced else 0.0
    )
    values["trace.spans"] = (len(tracer.spans) + tracer.dropped) / units
    values.update(ctx.layer)
    values.setdefault("adapt.best_index", -1)
    failed = 0
    for applies_to, metric, claim in PREDICTIONS:
        if ctx.workload in applies_to:
            held = values.get(metric, 0) == 0
            failed += not held
            print(f"prediction {ctx.workload}: {claim} ({metric} = {values.get(metric, 0):g}): {'held' if held else 'FAILED'}")
    values["trace.predictions_failed"] = failed
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


def _run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sa = SimpleNamespace(**{m: importlib.import_module(f"stegadapt.{m}") for m in MODULES})
    env_record = _environment()
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)
    work = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.instrument(tracer, sa)
    yard = yardstick.Yardstick()
    import_s = yard.scale(workloads.import_seconds(ROOT, _child_env()))
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        work=work,
        sa=sa,
        tracer=tracer,
        yard=yard,
        make_cache=_make_cache_in_child(args.seed),
        import_s=import_s,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    if not outcome.unit_s:
        raise RuntimeError("no unit of work completed:\n" + "\n".join(ctx.problems))
    attempted = max(ctx.attempted, 1)
    end_to_end = {
        "setup_s": outcome.setup_s,
        "work_s": statistics.median(outcome.unit_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - ctx.failed / attempted,
    }
    print(f"units {len(outcome.unit_s)} untraced, {len(outcome.traced_unit_s)} traced; "
          f"work_s per unit: {', '.join(f'{t:.4f}' for t in outcome.unit_s + outcome.traced_unit_s)}")
    print(f"kernel slowness around each unit, warm-up first: {', '.join(f'{f:.3f}' for f in ctx.unit_factor)}; "
          f"median of all readings {yard.median_slowness():.3f}")
    for name, unit in END_TO_END:
        print(f"metric {name} = {end_to_end[name]:.6g} {unit}")
    ctx.named["failed_share"] = (ctx.failed / attempted, "ratio")
    for name, (value, unit) in ctx.named.items():
        print(f"named {name} = {value:.6g} {unit}")
    for name, value in ctx.layer.items():
        print(f"output {name} = {value:.6g}")
    for problem in ctx.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = _per_layer(ctx, outcome)
        for name, entry in metrics.items():
            print(f"layer {name} = {entry['value']:.6g} {entry['unit']}")
        tracer.write(
            ROOT / TRACE_DIR / f"{args.workload}.trace.jsonl",
            {"workload": args.workload, "seed": args.seed, "env": env_record},
        )
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not ctx.problems and ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }


def _make_cache(args) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from stegadapt import config, experiment

    experiment.prepare_data(workloads.desk_config(config, args.seed), args.make_cache)


def _on_alarm(signum, frame):
    raise TimeoutError(f"benchmark exceeded {TIME_LIMIT_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the work directory is removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("datagen", "pretrain", "adapt", "codec"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-cache", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: run from a full checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.make_cache is not None:
        _make_cache(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(TIME_LIMIT_S)
    try:
        result = _run(args)
    finally:
        signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
