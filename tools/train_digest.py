#!/usr/bin/env python3
"""SHA-256 digest of the training runs a config produces.

For the config's first eval seed and its first ordered domain pair, it runs
``pretrain`` then ``finetune`` for the ``none``, ``w-FF`` and ``w-SLB``
heads, exactly as configured. The digest covers each stage's log (floats as
``float.hex``), each stage's best index and the adapted model's target-test
probabilities, so two commits whose digests agree train bit-identical
models. Run from the repository root:

    PYTHONPATH=src python3 tools/train_digest.py configs/quick.json

It prints one line per variant and a last line for all of them. The bits
depend on the numpy/BLAS build and the BLAS thread count, so the tool sets
the BLAS thread count to one before numpy loads, and only digests taken on
the same build compare. Nothing is read from or written to a cache.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, so BLAS starts single-threaded
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402

from stegadapt.config import load_config  # noqa: E402
from stegadapt.experiment import TaskSpec, adapt_stage, prepare_data, pretrain_stage, task_pairs  # noqa: E402

VARIANTS = ("none", "w-FF", "w-SLB")


def _exact(value):
    """``value`` with every float replaced by its ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_exact(item) for item in value]
    return value


def variant_records(cfg, data, spec: TaskSpec, seed: int) -> list:
    """The pretrain and finetune logs and best indices, then the target-test probabilities."""
    pre = pretrain_stage(cfg, data, spec, seed)
    adapted = adapt_stage(cfg, data, spec, seed, pre.model)
    _, target = data.task(spec)
    probs = adapted.model.predict(target.test, batch_size=cfg.train.eval_batch_size)
    return [pre.log, pre.best_index, adapted.log, adapted.best_index, probs.tolist()]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment config JSON")
    args = parser.parse_args(argv)
    cfg = load_config(args.config)
    data = prepare_data(cfg)
    source, target = task_pairs(cfg.data.domain_tags())[0]
    seed = cfg.eval.seeds[0]
    everything = hashlib.sha256()
    for variant in VARIANTS:
        spec = TaskSpec(source=source, target=target, ablation=variant)
        line = json.dumps(_exact(variant_records(cfg, data, spec, seed)), sort_keys=True).encode() + b"\n"
        everything.update(line)
        print(f"{variant} {hashlib.sha256(line).hexdigest()}")
    print(f"all {everything.hexdigest()}")


if __name__ == "__main__":
    main()
