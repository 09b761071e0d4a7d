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


# the round-trip bounds perfbench puts on `chanimg report` (degrees for angles
# and phase)
ROUNDTRIP_TOL = {"pathloss dB": 1e-6, "delay s": 1e-12, "aod deg": 1e-6, "zod deg": 1e-6,
                 "aoa deg": 1e-6, "zoa deg": 1e-6, "phase deg": 1e-6}


def test_channel_image_demo_renders_blocks_and_round_trips():
    out = run_demo("02_channel_images.py")
    assert "block is constant: True" in out, out
    errors = dict(re.findall(r"^  (\w+ \w+) +(\S+)$", out, flags=re.MULTILINE))
    assert errors.keys() == ROUNDTRIP_TOL.keys(), out
    for label, bound in ROUNDTRIP_TOL.items():
        assert float(errors[label]) <= bound, (label, out)


def test_toy_wgan_recovers_each_condition_mean():
    out = run_demo("03_train_toy_wgan.py")
    means = re.findall(r"sample mean ([+-]\d\.\d+) \(target ([+-]\d\.\d)\)", out)
    assert len(means) == 2, out
    for mean, target in means:
        assert abs(float(mean) - float(target)) <= 0.05, out
