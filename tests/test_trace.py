"""A traced train stage through the benchmark's tracer, perfbench/tracer.py.

The tracer wraps the WGAN-GP layer functions by name and reads the critic's
sizes for its FLOP counter, so a change to either shows here first.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

from chanimg import io

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_train_counts_the_critic_flops(tmp_path):
    rng = np.random.default_rng(0)
    conds = np.column_stack([rng.uniform(10, 500, 64), rng.choice([1.6, 30.0], 64)])
    io.write_images(tmp_path / "i.chim", rng.uniform(-1, 1, (64, 8, 25)), conds)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(TRACER.parent.parent / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--",
         "--seed", "1", "train", "--images", str(tmp_path / "i.chim"), "--epochs", "1",
         "--batch-size", "16", "--hidden", "8", "--out", str(tmp_path / "m.ckpt")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["rc"] == 0
    # 64 matrices in batches of 16: 4 critic steps on a [232, 8, 1] critic
    # behind a [2, 32, 32] condition embedding (the tracer imports no chanimg)
    critic_step_flops = runpy.run_path(str(TRACER))["critic_step_flops"]
    assert doc["counters"]["genmodel.wgan.critic_loss_and_grads.flops"] == \
        4 * critic_step_flops([232, 8, 1], [2, 32, 32], 16) > 0
    assert not [t for t in doc["absent"] if "genmodel" in t]
    assert {"cli.train", "genmodel.wgan.train_wgan_gp", "genmodel.nn.adam_step"} <= \
        {name for name, *_ in doc["spans"]}
