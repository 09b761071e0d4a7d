"""chanimg runs BLAS on one thread when it is imported before numpy.

Each case runs in a child interpreter, since the pin depends on what the
process imported first.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanimg import io
from chanimg.genmodel.wgan import usable_cpus

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**blas):
    """The environment of a child that imports this tree, with no BLAS thread
    variable but the given ones."""
    env = {k: v for k, v in os.environ.items() if k not in (*BLAS_VARS, "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return dict(env, **blas)


def child(*argv, **blas):
    """The words `python argv` prints, run in child_env(**blas)."""
    proc = subprocess.run([sys.executable, *argv], env=child_env(**blas),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


READ_VARS = f"import os; print(*(os.environ.get(v) for v in {BLAS_VARS!r}))"


def test_import_pins_every_unset_variable():
    assert child("-c", "import chanimg; " + READ_VARS) == ["1", "1", "1"]


def test_a_users_value_wins():
    assert child("-c", "import chanimg; " + READ_VARS,
                 OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


def test_import_after_numpy_sets_nothing():
    assert child("-c", "import numpy, chanimg; " + READ_VARS) == ["None"] * 3


THREADS = """
import chanimg, numpy as np
a = np.ones((500, 500))
a @ a
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc")
@pytest.mark.skipif(usable_cpus() < 2, reason="one CPU: BLAS starts no thread anyway")
def test_a_product_after_import_runs_on_one_thread():
    assert child("-c", THREADS) == ["1"]


# trains a small model whose every batch is two row blocks on two usable
# CPUs, then prints how many threads ran a critic block.  chanimg is
# imported before numpy, as the CLI imports it
WORKER = """
import threading
from chanimg.genmodel import wgan
import numpy as np

wgan.SPLIT_WORK = 0
wgan.usable_cpus = lambda: 2
threads = set()
critic_block = wgan._critic_block

def recorded(*args):
    threads.add(threading.current_thread().name)
    return critic_block(*args)

wgan._critic_block = recorded
rng = np.random.default_rng(0)
images = rng.uniform(-1, 1, (64, 8, 25))
conds = np.column_stack([rng.uniform(10, 500, 64), rng.choice([1.6, 30.0], 64)])
wgan.train_wgan_gp(images, conds,
                   wgan.WganGpHyperparams(hidden=(16, 16), noise_dim=8, epochs=1, batch_size=32),
                   seed=0)
print(len(threads))
"""


@pytest.mark.parametrize("blas, threads", [({}, "2"), ({"OPENBLAS_NUM_THREADS": "2"}, "1")])
def test_training_runs_the_worker_only_on_a_one_thread_blas(blas, threads):
    assert child("-c", WORKER, **blas) == [threads]


def test_train_writes_the_pinned_bytes_with_no_variable(tmp_path):
    # the default model at batch 256 cuts each batch into two row blocks
    rng = np.random.default_rng(3)
    conds = np.column_stack([rng.uniform(10, 500, 600), rng.choice([1.6, 30.0], 600)])
    io.write_images(tmp_path / "i.chim", rng.uniform(-1, 1, (600, 8, 25)), conds)
    written = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        child("-m", "chanimg.cli", "--seed", "5", "train", "--images", str(tmp_path / "i.chim"),
              "--epochs", "2", "--out", str(tmp_path / "m.ckpt"),
              "--log", str(tmp_path / "log.csv"), **blas)
        written.append([(tmp_path / name).read_bytes() for name in ("m.ckpt", "log.csv")])
    assert written[0] == written[1]
