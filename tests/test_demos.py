"""The demos run end to end; demo 03's toy WGAN-GP recovers its targets."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["01_los_geometry.py", "02_channel_images.py",
                                  "04_resampler_eval.py"])
def test_demo_runs(demo):
    run_demo(demo)


def test_toy_wgan_recovers_each_condition_mean():
    out = run_demo("03_train_toy_wgan.py")
    means = re.findall(r"sample mean ([+-]\d\.\d+) \(target ([+-]\d\.\d)\)", out)
    assert len(means) == 2, out
    for mean, target in means:
        assert abs(float(mean) - float(target)) <= 0.05, out
