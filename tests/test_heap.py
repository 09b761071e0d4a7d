"""Importing chanimg has malloc keep freed memory, where the C library has mallopt.

Each case runs in a child interpreter, whose heap no earlier test has shaped.
"""

import ctypes

import numpy as np
import pytest

from chanimg import io
from test_blas_pin import child


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# prints the minor page faults of each default-model critic and generator
# step at batch 256, in two row blocks with the second on the worker, after
# two rounds that let the heap grow to what a step uses
FAULTS = """
import resource
import chanimg
import numpy as np
from chanimg.genmodel import wgan
from chanimg.rng import substream

netp = wgan.build_networks(wgan.WganGpHyperparams(), [10.0, 1.6], [500.0, 30.0],
                           substream(33, "init"))
rng = np.random.default_rng(34)
real, fake = rng.uniform(-1, 1, (2, 256, 8, 25))
cond, u, z = rng.uniform(-1, 1, (256, 2)), rng.uniform(size=(256, 1)), rng.standard_normal((256, 64))
with wgan.RowBlocks(2, threaded=True) as blocks:
    steps = (lambda: wgan.critic_loss_and_grads(netp, real, fake, cond, u, 10.0, blocks),
             lambda: wgan.generator_loss_and_grads(netp, z, cond, blocks))
    for round in range(6):
        for step in steps:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            step()
            if round >= 2:
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
def test_training_steps_fault_little_after_the_first():
    # measured: no fault in any step after the first, where a heap that
    # returned its freed memory faulted 800-2,800 pages into every step
    faults = [int(n) for n in child("-c", FAULTS)]
    assert len(faults) == 8 and max(faults) <= 64, faults


# trains with the C library lookup failing, so that no mallopt is called,
# and prints how many lookups failed
NO_LIBC = """
import ctypes, sys

failed = []

def no_library(*args, **kwargs):
    failed.append(args)
    raise OSError("no C library")

ctypes.CDLL = no_library
from chanimg import cli
code = cli.run(sys.argv[1:])
print(len(failed))
sys.exit(code)
"""


def test_import_without_a_c_library_trains_the_same_bytes(tmp_path):
    rng = np.random.default_rng(4)
    conds = np.column_stack([rng.uniform(10, 500, 200), rng.choice([1.6, 30.0], 200)])
    io.write_images(tmp_path / "i.chim", rng.uniform(-1, 1, (200, 8, 25)), conds)
    written = []
    for argv in (["-m", "chanimg.cli"], ["-c", NO_LIBC]):
        said = child(*argv, "--seed", "5", "train", "--images", str(tmp_path / "i.chim"),
                     "--hidden", "16,16", "--batch-size", "64", "--epochs", "2",
                     "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "log.csv"))
        written.append([(tmp_path / name).read_bytes() for name in ("m.ckpt", "log.csv")])
    assert said[-1] == "1"
    assert written[0] == written[1]
