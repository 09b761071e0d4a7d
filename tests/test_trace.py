"""A traced train stage through the benchmark's tracer, perfbench/tracer.py.

The tracer wraps the WGAN-GP layer functions by name and reads the critic's
sizes for its FLOP counter, so a change to either shows here first.  A
renamed wrap target would only read 0 calls in the benchmark, so the
targets are resolved here too.
"""

import functools
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

from chanimg import io

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the tracer's targets whose code was renamed or deleted before this check
STALE_TARGETS = {
    ("chanimg.codec", "DatasetEncoder.__init__"),
    ("chanimg.codec", "DatasetEncoder.encode_all"),
    ("chanimg.codec", "ChannelImageCodec.encode_link"),
    ("chanimg.io", "read_dataset"),
    ("chanimg.io", "write_dataset"),
}


def self_times(spans):
    """Each [name, parent index, start, end] span's duration minus its direct children's."""
    times = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            times[parent] -= end - start
    return times


def train_env(blas_threads):
    """The environment of a child that imports this tree, with BLAS on blas_threads threads."""
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=os.pathsep.join(
        p for p in (str(TRACER.parent.parent / "src"), os.environ.get("PYTHONPATH")) if p))


def train_argv(tmp_path, tag, batch, hidden):
    """A train stage of one epoch on tmp_path/i.chim, writing tmp_path/tag.ckpt and .csv."""
    return ["--seed", "1", "train", "--images", str(tmp_path / "i.chim"), "--epochs", "1",
            "--batch-size", str(batch), "--hidden", ",".join(map(str, hidden)),
            "--out", str(tmp_path / f"{tag}.ckpt"), "--log", str(tmp_path / f"{tag}.csv")]


def traced_train(tmp_path, n, batch, hidden):
    """Spans of one traced train epoch over n random matrices, checked against the FLOP count.

    BLAS runs on one thread, so the row-block worker runs where two CPUs
    are usable; the model and log are tmp_path/traced.ckpt and .csv."""
    rng = np.random.default_rng(0)
    conds = np.column_stack([rng.uniform(10, 500, n), rng.choice([1.6, 30.0], n)])
    io.write_images(tmp_path / "i.chim", rng.uniform(-1, 1, (n, 8, 25)), conds)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--",
         *train_argv(tmp_path, "traced", batch, hidden)],
        env=train_env(1), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["rc"] == 0
    # one critic span per critic step: the row blocks run inside it, and no
    # wrapped layer is entered from the worker thread, whose spans would
    # nest under whatever the calling thread had open
    steps = n // batch
    names = [name for name, *_ in doc["spans"]]
    assert names.count("genmodel.wgan.critic_loss_and_grads") == steps
    assert min(self_times(doc["spans"])) >= 0.0
    # the critic sits behind a [2, 32, 32] condition embedding (the tracer
    # imports no chanimg)
    critic_step_flops = runpy.run_path(str(TRACER))["critic_step_flops"]
    assert doc["counters"]["genmodel.wgan.critic_loss_and_grads.flops"] == \
        steps * critic_step_flops([232, *hidden, 1], [2, 32, 32], batch) > 0
    assert not [t for t in doc["absent"] if "genmodel" in t]
    assert {"cli.train", "genmodel.wgan.train_wgan_gp", "genmodel.nn.adam_step"} <= set(names)


def test_traced_train_counts_the_critic_flops(tmp_path):
    # 64 matrices in batches of 16 on a [232, 8, 1] critic: one row block per pass
    traced_train(tmp_path, 64, 16, [8])


def test_traced_train_in_two_row_blocks(tmp_path):
    # 512 matrices in batches of 256 on the default [232, 256, 256, 1]
    # critic: two row blocks per pass, the second on the worker thread
    # where two CPUs are usable
    traced_train(tmp_path, 512, 256, [256, 256])
    # untraced, beside a two-thread BLAS (no worker), the same model and log:
    # neither the split of the products nor the gradient norms' sums depend
    # on the threads
    subprocess.run([sys.executable, "-m", "chanimg.cli",
                    *train_argv(tmp_path, "plain", 256, [256, 256])],
                   env=train_env(2), check=True, capture_output=True, timeout=300)
    for suffix in (".ckpt", ".csv"):
        assert (tmp_path / ("plain" + suffix)).read_bytes() == \
            (tmp_path / ("traced" + suffix)).read_bytes(), suffix


def test_tracer_targets_resolve_but_the_stale_ones():
    # the tracer imports no chanimg, so its targets are read without wrapping any
    absent = set()
    for _, module, path in runpy.run_path(str(TRACER))["TARGETS"]:
        try:
            functools.reduce(getattr, path.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            absent.add((module, path))
    assert absent <= STALE_TARGETS, absent - STALE_TARGETS
