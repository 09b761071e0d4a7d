"""Conditional Wasserstein GAN with gradient penalty over channel matrices.

The model works on the codec's scaled (8, 25) channel matrix
(core.MATRIX_SHAPE), the form that CHIM files store and decode reads.
The paper's 64x50 channel image is a rendering of it (codec.tile, each
cell an 8x2 pixel block) and carries no further values.  The CLI trains on
the matrices it reads and writes the samples as they come.

Generator and critic are dense networks (nn.Mlp) in float64 or float32
(WganGpHyperparams.dtype).  The condition (2D distance, receiver height)
is normalized to [-1, 1] by dataset bounds and embedded through a small
fully connected network on each side; the embedding concatenates with
the noise vector (generator) or the flattened matrix (critic) at the input.
network_sizes states the architecture once, for build_networks and the
checkpoint reader: only the noise width and the hidden widths are
settings.  Every hidden layer is silu, the embeddings and the generator
end in tanh, and the critic's score is linear.

The critic objective is the textbook penalty in the space the model
samples, the matrix m:

    mean f(fake) - mean f(real) + lambda * mean (||grad_m f(m_hat)|| - 1)^2

with m_hat = u * real + (1 - u) * fake, u ~ U(0,1) per sample, and the
gradient taken with respect to the matrix part of the critic input only.
A penalty with target 1 on the 64x50 rendering would be target 4 on the
matrix gradient only for a critic that is constant over each pixel block,
so no choice here reproduces an image-space critic exactly.  The generator
minimizes -mean f(fake).  All gradients, including the second-order
gradient-penalty path, are computed analytically and are finite-difference
checked in the test suite.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..core import MATRIX_SHAPE
from ..errors import DataError, TrainingDivergedError
from ..rng import substream
from . import is_int, sample_request
from .nn import AdamState, Mlp, Scratch, adam_step, count_params, frame, take

__all__ = [
    "WganGpHyperparams",
    "NetworkParams",
    "network_sizes",
    "TrainingLog",
    "ArrayBatches",
    "RowBlocks",
    "train_wgan_gp",
    "sample",
]

SAMPLE_CHUNK = 256  # samples per generator forward in sample; bounds its working memory
# training splits each pass into two row blocks when batch size x critic
# weights reaches this.  The worker's two blocks over one block's time
# (training medians, 2-vCPU host, BLAS on one thread, second vCPU free):
# 1.07-1.96 at 0.5-6.0 M (hidden 32 to 128), 0.85-1.26 at 8-10 M (hidden
# 128 and 256: no clear winner), 0.67-0.92 from 11 M (the default model
# at batch 256 is 32 M).  A 64-wide critic gains from 6 M.  Without the
# worker, two blocks take 1.04-1.20 of one block's time
SPLIT_WORK = 2**23
PIXELS = math.prod(MATRIX_SHAPE)  # the 200 values a channel matrix holds
EMBED_DIM = 32  # width of each condition embedding and of its one hidden layer
# output activation of each network, by the name the checkpoint stores it under
OUT_ACT = {"gen_embed": "tanh", "generator": "tanh", "critic_embed": "tanh",
           "critic": "linear"}


def network_sizes(noise_dim: int, hidden) -> dict:
    """{name: layer sizes} of the four networks, in their init order."""
    return {
        "gen_embed": [2, EMBED_DIM, EMBED_DIM],
        "generator": [noise_dim + EMBED_DIM, *hidden, PIXELS],
        "critic_embed": [2, EMBED_DIM, EMBED_DIM],
        "critic": [PIXELS + EMBED_DIM, *hidden, 1],
    }


@dataclass
class WganGpHyperparams:
    """Training knobs; defaults follow the reported recipe.

    learning rate 5e-5, Adam betas (0.5, 0.9), 10 epochs, batch 256;
    gradient-penalty weight 10 and 5 critic steps per generator step are
    the standard reference values.  Samples are 8x25 channel matrices.
    """

    learning_rate: float = 5e-5
    adam_beta1: float = 0.5
    adam_beta2: float = 0.9
    epochs: int = 10
    batch_size: int = 256
    gp_lambda: float = 10.0
    critic_steps_per_gen_step: int = 5
    noise_dim: int = 64

    # hidden widths of generator and critic (small on purpose; parameter
    # counts land in the log); network_sizes fixes every other width
    hidden: tuple = (256, 256)
    # training arithmetic; checkpoints are always written as float64
    dtype: str = "float64"
    # init shaping of the generator output layer:
    #   fan_in       - plain uniform fan-in init
    #   data_mean    - output bias starts at arctanh(mean training matrix)
    #   data_moments - bias as above plus per-pixel weight rescaling so the
    #                  initial output marginals match the training data's
    #                  (one calibration forward pass on noise at init)
    output_init: str = "fan_in"

    def validate(self):
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "gp_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "critic_steps_per_gen_step", "noise_dim"):
            if not is_int(getattr(self, name)):
                raise DataError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.hidden, (tuple, list)) or not all(map(is_int, self.hidden)):
            raise DataError(f"hidden must be a list of integer widths, got {self.hidden!r}")
        positive = (
            self.learning_rate, self.epochs,
            self.batch_size, self.gp_lambda, self.critic_steps_per_gen_step,
            self.noise_dim, *self.hidden,
        )
        if not self.hidden or any(v <= 0 for v in positive):
            raise DataError("all hyperparameters must be positive, with one hidden width "
                            "or more")
        # beta1 = 0 is the Adam setting of the WGAN-GP paper (Gulrajani et al. 2017)
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise DataError("Adam beta1 must lie in [0, 1) and beta2 in (0, 1)")
        if self.output_init not in ("fan_in", "data_mean", "data_moments"):
            raise DataError("output_init must be fan_in, data_mean or data_moments")
        if self.dtype not in ("float64", "float32"):
            raise DataError("dtype must be float64 or float32")


@dataclass
class NetworkParams:
    """Weights of both networks plus the condition normalization bounds."""

    gen_embed: Mlp
    generator: Mlp
    critic_embed: Mlp
    critic: Mlp
    cond_min: np.ndarray
    cond_max: np.ndarray
    noise_dim: int

    def generator_params(self):
        return self.gen_embed.params + self.generator.params

    def critic_params(self):
        return self.critic_embed.params + self.critic.params

    def param_counts(self) -> dict:
        return {
            "generator": count_params(self.gen_embed, self.generator),
            "critic": count_params(self.critic_embed, self.critic),
        }

    def normalize_conditions(self, cond) -> np.ndarray:
        c = np.atleast_2d(np.asarray(cond, dtype=np.float64))
        span = self.cond_max - self.cond_min
        safe = np.where(span > 0, span, 1.0)
        out = 2.0 * (c - self.cond_min) / safe - 1.0
        return np.where(span > 0, out, 0.0)

    def check_finite(self):
        for p in self.generator_params() + self.critic_params():
            if not np.all(np.isfinite(p)):
                raise DataError("network parameters contain non-finite values")


def build_networks(hyper: WganGpHyperparams, cond_min, cond_max, rng) -> NetworkParams:
    nets = {name: Mlp.init(sizes, OUT_ACT[name], rng, dtype=np.dtype(hyper.dtype))
            for name, sizes in network_sizes(hyper.noise_dim, hyper.hidden).items()}
    return NetworkParams(**nets, cond_min=np.asarray(cond_min, dtype=np.float64),
                         cond_max=np.asarray(cond_max, dtype=np.float64),
                         noise_dim=hyper.noise_dim)


def calibrate_output_layer(netp: NetworkParams, mode: str, mu, sd, z, cond_norm):
    """Match the generator's initial output marginals to the data's.

    mu/sd are per-pixel moments of arctanh(clipped training pixels).  The
    output bias starts at mu; in 'data_moments' mode each output row's
    weights are additionally rescaled so the pre-squash spread over a
    calibration batch (z, cond_norm) matches sd.
    """
    w, b = netp.generator.params[-2], netp.generator.params[-1]
    b[:] = mu
    if mode == "data_moments":
        _, cache = netp.generator.forward(
            np.concatenate([z, netp.gen_embed.forward(cond_norm)[0]], axis=1))
        pre = cache["a"][-1] - b
        current = np.maximum(pre.std(axis=0), 1e-6)
        w *= (np.asarray(sd) / current)[:, None]


# -- row blocks -----------------------------------------------------------------


class RowBlocks:
    """Runs a pass over a batch as fixed row blocks, each on its own nn.Scratch.

    One scratch makes one block of every row.  Two scratches cut a b-row
    batch into rows [0, b // 2) and [b // 2, b), or make one block when
    b = 1.  A scratch of None gives its block fresh arrays.  The passes
    below normalize each block by the whole batch size and add the blocks'
    results in block order, so their bits do not depend on which thread
    runs a block.

    threaded=True runs the second block on a worker thread while the
    caller runs the first: numpy releases the interpreter lock in BLAS and
    in its ufunc loops, so the blocks overlap on two CPUs.  The worker
    starts on the first such pass; close(), or leaving a with statement,
    joins it.
    """

    def __init__(self, scratches=(None,), threaded=False):
        self.scratches = tuple(scratches)
        if len(self.scratches) not in (1, 2):
            raise ValueError("RowBlocks takes one or two scratches")
        self._worker = None
        if threaded and len(self.scratches) == 2:
            # imported here: a stage that runs no worker does not load it
            from concurrent.futures import ThreadPoolExecutor

            self._worker = ThreadPoolExecutor(1, thread_name_prefix="chanimg-rows")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._worker is not None:
            self._worker.shutdown()

    def reset(self):
        """Rewind every block's scratch: its arrays may be overwritten."""
        for scratch in self.scratches:
            if scratch is not None:
                scratch.reset()

    def map(self, fn, b):
        """[fn(rows, scratch) for each block's row slice and scratch], in block order."""
        half = b // 2 if len(self.scratches) == 2 else 0
        if half == 0:
            return [fn(slice(0, b), self.scratches[0])]
        first, second = self.scratches
        if self._worker is None:
            return [fn(slice(0, half), first), fn(slice(half, b), second)]
        later = self._worker.submit(fn, slice(half, b), second)
        try:
            head = fn(slice(0, half), first)
        finally:
            later.exception()  # waits: the second block writes its scratch until it returns
        return [head, later.result()]


def _add_blocks(results):
    """[loss sums] and gradients of every block, added in block order.

    The sums are added as floats and the gradients into the first block's
    arrays, which are returned.
    """
    (sums, grads), *rest = results
    for more_sums, more_grads in rest:
        sums = [a + m for a, m in zip(sums, more_sums)]
        for g, m in zip(grads, more_grads):
            g += m
    return sums, grads


# -- losses -------------------------------------------------------------------
#
# Each public pass below is one call on the calling thread that runs its row
# blocks through a RowBlocks (by default one block on fresh arrays).  The
# block functions are private, so a block never enters a public name.


def _critic_apply(netp: NetworkParams, x_flat, cond_norm, scratch=None):
    """Critic value on (image, condition); returns scores and the body cache."""
    emb, _ = netp.critic_embed.forward(cond_norm, scratch)
    return netp.critic.forward(_stack_columns(x_flat, emb, netp.critic.dtype, scratch),
                               scratch)


def _stack_columns(x, emb, dtype, scratch):
    """[x, emb] along the columns, in an array taken from scratch."""
    out = take(scratch, (len(x), x.shape[1] + emb.shape[1]), dtype)
    out[:, :x.shape[1]] = x
    out[:, x.shape[1]:] = emb
    return out


def _interpolates(real, fake, u, out, tmp):
    """u * real + (1 - u) * fake into out; tmp receives the second product."""
    np.multiply(u, real, out=out)
    out += np.multiply(1.0 - u, fake, out=tmp)


def critic_loss_and_grads(netp: NetworkParams, real, fake, cond_norm, u, gp_lambda: float,
                          blocks=None):
    """Loss parts plus gradients aligned with netp.critic_params().

    The parts are "total", "wasserstein" (mean f(fake) - mean f(real)),
    "gp" (the lambda-weighted penalty) and "gp_norm" (the mean input-gradient
    norm at the interpolates, which the penalty pulls towards 1).  The rows
    run as blocks (a RowBlocks; see _critic_block), and the gradients
    returned are arrays of the first block's scratch.
    """
    dt = netp.critic.dtype
    real = np.asarray(real, dtype=dt).reshape(len(real), -1)
    fake = np.asarray(fake, dtype=dt).reshape(len(fake), -1)
    u = np.asarray(u, dtype=dt)
    b = len(real)
    if blocks is None:
        blocks = RowBlocks()
    (w_sum, gp_sum, norm_sum), grads = _add_blocks(blocks.map(
        lambda rows, scratch: _critic_block(netp, real[rows], fake[rows], cond_norm[rows],
                                            u[rows], gp_lambda, b, scratch), b))
    wasserstein, gp = w_sum / b, gp_lambda * gp_sum / b
    total = wasserstein + gp
    if not math.isfinite(total):
        raise TrainingDivergedError(-1, "non-finite critic loss")
    return ({"total": total, "wasserstein": wasserstein, "gp": gp, "gp_norm": norm_sum / b},
            grads)


def _critic_block(netp: NetworkParams, real, fake, cond_norm, u, gp_lambda, b, scratch):
    """One row block's share of the critic loss of a b-row batch.

    Returns the block's [sum f(fake) - sum f(real), sum (s - 1)^2, sum s],
    s the input-gradient norm at each interpolate, and the gradients of its
    rows' terms of the whole-batch loss.  Every array is taken from scratch
    (see nn): the Wasserstein pass's memory is rewound once its backward has
    returned, and the penalty pass reuses it.
    """
    critic, dt = netp.critic, netp.critic.dtype
    n, d = real.shape
    emb, emb_cache = netp.critic_embed.forward(cond_norm, scratch)
    grads = [take(scratch, p.shape, dt) for p in critic.params]
    d_emb = take(scratch, emb.shape, dt)

    # Wasserstein part: one pass over the stacked inputs [real, emb; fake, emb]
    with frame(scratch):
        u_all = take(scratch, (2 * n, d + emb.shape[1]), dt)
        u_all[:n, :d] = real
        u_all[n:, :d] = fake
        u_all[:n, d:] = emb
        u_all[n:, d:] = emb
        f_all, cache_all = critic.forward(u_all, scratch)
        w_sum = float(f_all[n:].sum() - f_all[:n].sum())
        d_out = np.full((2 * n, 1), 1.0 / b, dtype=dt)
        d_out[:n] = -1.0 / b
        # only the embedding columns of the input gradient are read
        _, d_emb_all = critic.backward(cache_all, d_out, in_cols=slice(d, None),
                                       scratch=scratch, out=grads)
        np.add(d_emb_all[:n], d_emb_all[n:], out=d_emb)

    # gradient penalty: needs second derivatives through the input gradient,
    # whose parameter gradients grad_of_jvp adds to grads
    with frame(scratch):
        x_hat = take(scratch, (n, d + emb.shape[1]), dt)
        with frame(scratch):
            _interpolates(real, fake, u, x_hat[:, :d], take(scratch, (n, d), dt))
        x_hat[:, d:] = emb
        f, cache_h = critic.forward(x_hat, scratch)
        g_img = critic.input_grad(cache_h, np.ones_like(f), slice(0, d), scratch)
        with frame(scratch):
            s = np.sqrt(np.sum(np.multiply(g_img, g_img, out=take(scratch, g_img.shape, dt)),
                               axis=1))
        s_safe = np.maximum(s, 1e-12)
        coef = (gp_lambda * 2.0 * (s - 1.0) / (s_safe * b))[:, None].astype(dt)
        tangent = take(scratch, x_hat.shape, dt)
        tangent[:, :d] = g_img
        tangent[:, d:] = 0.0
        _, d_emb_gp = critic.grad_of_jvp(cache_h, tangent, coef, slice(d, None), scratch,
                                         out=grads)
        d_emb += d_emb_gp
    emb_grads, _ = netp.critic_embed.backward(emb_cache, d_emb, scratch=scratch)
    return [w_sum, float(np.sum((s - 1.0) ** 2)), float(s.sum())], emb_grads + grads


def _generate(netp: NetworkParams, z, cond_norm, scratch):
    """The generator pass on one row block: (output, embedding cache, body cache)."""
    emb, emb_cache = netp.gen_embed.forward(cond_norm, scratch)
    y, cache = netp.generator.forward(
        _stack_columns(z, emb, netp.generator.dtype, scratch), scratch)
    return y, emb_cache, cache


def generator_forward(netp: NetworkParams, z, cond_norm, blocks=None, out=None):
    """G(z, c), a (b, 200) array with one row per noise row, into out (fresh when None).

    The rows run as blocks (a RowBlocks), each inside a frame of its
    scratch, so every scratch stands where it stood once this returns.
    """
    b = len(z)
    if out is None:
        out = np.empty((b, PIXELS), netp.generator.dtype)
    if blocks is None:
        blocks = RowBlocks()

    def block(rows, scratch):
        with frame(scratch):
            out[rows] = _generate(netp, z[rows], cond_norm[rows], scratch)[0]

    blocks.map(block, b)
    return out


def generator_loss_and_grads(netp: NetworkParams, z, cond_norm, blocks=None):
    """-mean f(G(z, c)) and its gradients aligned with netp.generator_params().

    The rows run as blocks (a RowBlocks), and the gradients returned are
    arrays of the first block's scratch.
    """
    b = len(z)
    if blocks is None:
        blocks = RowBlocks()
    (f_sum,), grads = _add_blocks(blocks.map(
        lambda rows, scratch: _generator_block(netp, z[rows], cond_norm[rows], b, scratch), b))
    loss = -f_sum / b
    if not math.isfinite(loss):
        raise TrainingDivergedError(-1, "non-finite generator loss")
    return loss, grads


def _generator_block(netp: NetworkParams, z, cond_norm, b, scratch):
    """One row block's [sum f(G(z, c))] and the gradients of its rows' terms of -mean f."""
    y, emb_cache, gen_cache = _generate(netp, z, cond_norm, scratch)
    d_y = take(scratch, y.shape, y.dtype)
    with frame(scratch):  # the critic's arrays are dead once d_y is copied out
        f, critic_cache = _critic_apply(netp, y, cond_norm, scratch)
        f_sum = float(f.sum())
        # critic params frozen: only the matrix columns of its input gradient count
        np.copyto(d_y, netp.critic.input_grad(
            critic_cache, np.full((len(z), 1), -1.0 / b, dtype=netp.critic.dtype),
            slice(0, y.shape[1]), scratch))
    gen_grads, d_emb = netp.generator.backward(
        gen_cache, d_y, in_cols=slice(netp.noise_dim, None), scratch=scratch)
    emb_grads, _ = netp.gen_embed.backward(emb_cache, d_emb, scratch=scratch)
    return [f_sum], emb_grads + gen_grads


# -- data feeding ---------------------------------------------------------------


def _to_preimage(x):
    """arctanh of pixels clipped away from +/-1 (the squash preimage)."""
    return np.arctanh(np.clip(x, -0.995, 0.995))


MOMENT_ROWS = 1024  # samples per block of ArrayBatches.preimage_moments


class ArrayBatches:
    """Minibatches over materialized (images, conditions) arrays."""

    def __init__(self, images, conditions):
        self.images = np.asarray(images)
        self.conditions = np.asarray(conditions, dtype=np.float64)
        if len(self.images) != len(self.conditions):
            raise DataError("images and conditions must pair up")
        if len(self.images) == 0:
            raise DataError("empty training set")
        # min and max propagate NaN and show +-inf, without a full-size mask
        if not (np.isfinite([self.images.min(), self.images.max()]).all()
                and np.isfinite(self.conditions).all()):
            raise DataError("training images or conditions contain non-finite values")

    def preimage_moments(self):
        """Per-pixel mean and population std of the samples' preimages (see _to_preimage).

        Two passes over blocks of MOMENT_ROWS samples in float64, each adding
        the rows in order as numpy's sum over axis 0 does: numpy's mean and
        std over the whole float64 set, which is never made.
        """
        flat = self.images.reshape(len(self.images), -1)

        def row_sum(f):  # of f(preimages), block by block; a running total heads each block
            blocks = (f(_to_preimage(flat[i:i + MOMENT_ROWS].astype(np.float64)))
                      for i in range(0, len(flat), MOMENT_ROWS))
            return functools.reduce(lambda total, x: np.vstack([total, x]).sum(axis=0), blocks,
                                    np.empty((0, flat.shape[1])))

        mu = row_sum(lambda x: x) / len(flat)
        return mu, np.sqrt(row_sum(lambda x: np.square(x - mu)) / len(flat))

    def epoch_batches(self, order_rng, batch_size, dtype):
        """(flattened images in dtype, raw conditions) of each full batch of one epoch."""
        idx = order_rng.permutation(len(self.images))
        for start in range(0, len(idx) - batch_size + 1, batch_size):
            take = idx[start:start + batch_size]
            x = self.images[take].astype(dtype, copy=False).reshape(len(take), -1)
            yield x, self.conditions[take]


@dataclass
class TrainingLog:
    """Per-critic-step losses and gradient norms plus model bookkeeping."""

    steps: list = field(default_factory=list)
    critic_losses: list = field(default_factory=list)
    gen_losses: list = field(default_factory=list)  # NaN when no generator step
    gp_terms: list = field(default_factory=list)
    wasserstein: list = field(default_factory=list)  # mean f(fake) - mean f(real)
    gp_norms: list = field(default_factory=list)  # mean ||grad_m f|| at the interpolates
    # global L2 norms of the gradients Adam is given; NaN when no generator step
    critic_grad_norms: list = field(default_factory=list)
    gen_grad_norms: list = field(default_factory=list)
    param_counts: dict = field(default_factory=dict)

    COLUMNS = ("step", "critic_loss", "gen_loss", "gp_term", "wasserstein", "gp_norm",
               "critic_grad_norm", "gen_grad_norm")

    def rows(self):
        for row in zip(self.steps, self.critic_losses, self.gen_losses, self.gp_terms,
                       self.wasserstein, self.gp_norms, self.critic_grad_norms,
                       self.gen_grad_norms):
            yield dict(zip(self.COLUMNS, row))


def _global_norm(grads) -> float:
    """L2 norm of all gradient arrays taken together.

    Summed by numpy's pairwise sum: BLAS's dot splits its sum across BLAS's
    threads, so its last bit would depend on their number.
    """
    return math.sqrt(sum(float(np.square(g).sum()) for g in grads))


# -- training -------------------------------------------------------------------


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """How many threads BLAS runs a product on, by OpenBLAS's rule.

    OpenBLAS, the BLAS of numpy's wheels, reads the first of these
    variables that is set to a positive count when it loads, and otherwise
    starts one thread per usable CPU.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cpus()


# read once, as numpy, imported above, has loaded OpenBLAS.  The row-block
# worker runs only beside a one-thread BLAS: beside a threaded one it made
# training slower
_BLAS_THREADS = _blas_threads()


def _dims(shape) -> str:
    return "x".join(str(d) for d in shape)


def train_wgan_gp(data: ArrayBatches, hyper: WganGpHyperparams, seed: int):
    """Train on channel matrices; returns (NetworkParams, TrainingLog).

    data's samples must be 8x25 matrices (a DataError otherwise), and it is
    cut into batches of hyper.batch_size.  Deterministic for a fixed seed:
    batch order, noise, interpolation draws and init each use a named
    substream of the seed, and the bits are the same whether or not the
    second row block runs on a worker thread (see RowBlocks).
    """
    hyper.validate()
    if data.images.shape[1:] != MATRIX_SHAPE:
        raise DataError(f"training samples have shape {_dims(data.images.shape[1:])}, "
                        f"the model expects {_dims(MATRIX_SHAPE)}")
    if len(data.images) < hyper.batch_size:
        raise DataError("dataset smaller than one batch; nothing to train on")

    cond = np.asarray(data.conditions, dtype=np.float64)
    netp = build_networks(hyper, cond.min(axis=0), cond.max(axis=0),
                          substream(seed, "init"))
    if hyper.output_init != "fan_in":
        mu, sd = data.preimage_moments()
        calib_rng = substream(seed, "init", "calibration")
        n_calib = min(512, len(cond))
        z = calib_rng.standard_normal((n_calib, hyper.noise_dim))
        c = netp.normalize_conditions(cond[calib_rng.integers(len(cond), size=n_calib)])
        calibrate_output_layer(netp, hyper.output_init, mu, sd, z, c)

    opt_c = AdamState.zeros(netp.critic_params())
    opt_g = AdamState.zeros(netp.generator_params())
    log = TrainingLog(param_counts=netp.param_counts())

    dt = np.dtype(hyper.dtype)
    fake = np.empty((hyper.batch_size, PIXELS), dt)
    # each row block keeps one scratch for the whole run: after the first
    # steps no step allocates its large arrays, and the critic step's passes
    # share memory (see nn).  The split depends only on the sizes, so the
    # bits do not depend on whether the second block runs on the worker
    split = hyper.batch_size * count_params(netp.critic) >= SPLIT_WORK
    scratches = (Scratch(), Scratch()) if split else (Scratch(),)
    threaded = usable_cpus() >= 2 and _BLAS_THREADS == 1
    with RowBlocks(scratches, threaded) as blocks:
        step = 0
        for epoch in range(hyper.epochs):
            order_rng = substream(seed, "batching", epoch)
            for x, c_raw in data.epoch_batches(order_rng, hyper.batch_size, dt):
                step += 1
                b = x.shape[0]
                c = netp.normalize_conditions(c_raw).astype(dt, copy=False)

                blocks.reset()
                z = substream(seed, "noise", step).standard_normal((b, hyper.noise_dim))
                generator_forward(netp, z.astype(dt), c, blocks, out=fake)
                u = substream(seed, "gp", step).uniform(size=(b, 1))
                parts, grads = critic_loss_and_grads(
                    netp, x, fake, c, u, hyper.gp_lambda, blocks)
                critic_grad_norm = _global_norm(grads)
                adam_step(netp.critic_params(), grads, opt_c,
                          hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2)

                gen_loss = gen_grad_norm = math.nan
                if step % hyper.critic_steps_per_gen_step == 0:
                    blocks.reset()
                    z2 = substream(seed, "noise-gen", step).standard_normal(
                        (b, hyper.noise_dim)).astype(dt)
                    gen_loss, ggrads = generator_loss_and_grads(netp, z2, c, blocks)
                    gen_grad_norm = _global_norm(ggrads)
                    adam_step(netp.generator_params(), ggrads, opt_g,
                              hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2)

                log.steps.append(step)
                log.critic_losses.append(parts["total"])
                log.gen_losses.append(gen_loss)
                log.gp_terms.append(parts["gp"])
                log.wasserstein.append(parts["wasserstein"])
                log.gp_norms.append(parts["gp_norm"])
                log.critic_grad_norms.append(critic_grad_norm)
                log.gen_grad_norms.append(gen_grad_norm)
    return netp, log


def sample(netp: NetworkParams, cond, n: int, seed: int, out=None) -> np.ndarray:
    """n channel matrices under the given condition(s), in [-1, 1].

    cond is one (dist2d, height) pair applied to every sample, or an (n, 2)
    array pairing one condition per sample.  Sample i's noise is row i of
    the (n, noise_dim) standard normals of the seed's "sampling" stream,
    so sample i depends only on (seed, i) and its condition: a smaller
    draw is a prefix of a larger one.

    The generator runs on SAMPLE_CHUNK samples at a time.  out, when given,
    is an (n, 8, 25) array that receives each block as it is made,
    cast to out's dtype (the CLI passes float32, the CHIM payload's), and
    is returned; otherwise the samples are returned as a new float64 array.
    """
    netp.check_finite()
    cond, out = sample_request(cond, n, MATRIX_SHAPE, np.float64, out)
    dt = netp.generator.dtype
    # every generator pass is over SAMPLE_CHUNK rows, the last block padded
    # with rows whose output is dropped: BLAS may round a row of a product
    # differently at another row count, and sample i must not depend on n
    c = np.zeros((-(-n // SAMPLE_CHUNK) * SAMPLE_CHUNK, 2), dtype=dt)
    c[:n] = netp.normalize_conditions(cond)

    noise = substream(seed, "sampling")
    z = np.zeros((SAMPLE_CHUNK, netp.noise_dim))
    scratch = Scratch()
    y = scratch.take((SAMPLE_CHUNK, PIXELS), dt)  # below every frame generator_forward rewinds
    blocks = RowBlocks((scratch,))  # one block: each pass is over all SAMPLE_CHUNK rows
    for start in range(0, n, SAMPLE_CHUNK):
        m = min(SAMPLE_CHUNK, n - start)
        noise.standard_normal(out=z[:m])
        generator_forward(netp, z.astype(dt, copy=False), c[start:start + SAMPLE_CHUNK],
                          blocks, out=y)
        out[start:start + m] = y[:m].reshape(m, *MATRIX_SHAPE)
    return out
