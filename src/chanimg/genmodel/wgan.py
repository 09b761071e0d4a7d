"""Conditional Wasserstein GAN with gradient penalty over channel matrices.

The model works on the codec's scaled (8, 25) channel matrix
(codec.MATRIX_SHAPE), the form that CHIM files store and decode reads.
The paper's 64x50 channel image is a rendering of it (codec.tile, each
cell an 8x2 pixel block) and carries no further values.  The CLI trains on
the matrices it reads and writes the samples as they come.

Generator and critic are dense networks (nn.Mlp) in float64 or float32
(WganGpHyperparams.dtype).  The condition (2D distance, receiver height)
is normalized to [-1, 1] by dataset bounds and embedded through a small
fully connected network on each side; the embedding concatenates with
the noise vector (generator) or the flattened matrix (critic) at the input.

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

import math
from dataclasses import dataclass, field

import numpy as np

from ..codec import MATRIX_SHAPE
from ..errors import DataError, TrainingDivergedError
from ..rng import substream
from .nn import AdamState, Mlp, adam_step, count_params

__all__ = [
    "WganGpHyperparams",
    "NetworkParams",
    "TrainingLog",
    "ArrayBatches",
    "train_wgan_gp",
    "sample",
]

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
    image_shape: tuple = MATRIX_SHAPE
    gp_lambda: float = 10.0
    critic_steps_per_gen_step: int = 5
    noise_dim: int = 64

    # architecture (small on purpose; parameter counts land in the log)
    hidden: tuple = (256, 256)
    embed_hidden: int = 32
    embed_dim: int = 32
    hidden_act: str = "silu"
    # training arithmetic; checkpoints are always written as float64
    dtype: str = "float64"
    # init shaping of the generator output layer:
    #   fan_in       - plain uniform fan-in init (gain below applies)
    #   data_mean    - output bias starts at arctanh(mean training matrix)
    #   data_moments - bias as above plus per-pixel weight rescaling so the
    #                  initial output marginals match the training data's
    #                  (one calibration forward pass on noise at init)
    generator_output_gain: float = 1.0
    output_init: str = "fan_in"

    def validate(self):
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "gp_lambda",
                     "generator_output_gain"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        positive = (
            self.learning_rate, self.adam_beta1, self.adam_beta2, self.epochs,
            self.batch_size, self.gp_lambda, self.critic_steps_per_gen_step,
            self.noise_dim, self.embed_hidden, self.embed_dim,
            self.generator_output_gain, *self.hidden,
        )
        if any(v <= 0 for v in positive):
            raise DataError("all hyperparameters must be positive")
        if not (self.adam_beta1 < 1.0 and self.adam_beta2 < 1.0):
            raise DataError("Adam betas must lie in (0, 1)")
        if len(self.image_shape) < 2:
            raise DataError("image_shape must be (rows, cols)")
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
    image_shape: tuple = MATRIX_SHAPE

    @property
    def image_dim(self) -> int:
        return int(np.prod(self.image_shape))

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
    image_dim = int(np.prod(hyper.image_shape))
    e = hyper.embed_dim
    gen_sizes = [hyper.noise_dim + e, *hyper.hidden, image_dim]
    critic_sizes = [image_dim + e, *hyper.hidden, 1]

    base = np.sqrt(3.0)
    gen_gains = [base] * (len(gen_sizes) - 2) + [base * hyper.generator_output_gain]
    act = hyper.hidden_act
    dt = np.dtype(hyper.dtype)

    return NetworkParams(
        gen_embed=Mlp.init([2, hyper.embed_hidden, e], "tanh", rng, hidden_act=act, dtype=dt),
        generator=Mlp.init(gen_sizes, "tanh", rng, hidden_act=act, gains=gen_gains, dtype=dt),
        critic_embed=Mlp.init([2, hyper.embed_hidden, e], "tanh", rng, hidden_act=act,
                              dtype=dt),
        critic=Mlp.init(critic_sizes, "linear", rng, hidden_act=act, dtype=dt),
        cond_min=np.asarray(cond_min, dtype=np.float64),
        cond_max=np.asarray(cond_max, dtype=np.float64),
        noise_dim=hyper.noise_dim,
        image_shape=tuple(hyper.image_shape),
    )


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


# -- losses -------------------------------------------------------------------


def _critic_apply(netp: NetworkParams, x_flat, cond_norm):
    """Critic value on (image, condition); returns scores and the body cache."""
    emb, _ = netp.critic_embed.forward(cond_norm)
    u = np.concatenate([x_flat, emb], axis=1)
    return netp.critic.forward(u)


def _interpolates(real, fake, u):
    """u * real + (1 - u) * fake; the second product is added in place."""
    x = u * real
    x += (1.0 - u) * fake
    return x


def _gp_terms(netp, x_hat, emb):
    """Per-sample gradient norms of the critic w.r.t. the matrix input."""
    f, cache = netp.critic.forward(np.concatenate([x_hat, emb], axis=1))
    g_img = netp.critic.input_grad(cache, np.ones_like(f), slice(0, x_hat.shape[1]))
    s = np.sqrt(np.sum(g_img * g_img, axis=1))
    return s, g_img, cache


def critic_loss_and_grads(netp: NetworkParams, real, fake, cond_norm, u, gp_lambda: float):
    """Loss parts plus gradients aligned with netp.critic_params().

    The parts are "total", "wasserstein" (mean f(fake) - mean f(real)),
    "gp" (the lambda-weighted penalty) and "gp_norm" (the mean input-gradient
    norm at the interpolates, which the penalty pulls towards 1).
    """
    dt = netp.critic.dtype
    real = np.asarray(real, dtype=dt).reshape(len(real), -1)
    fake = np.asarray(fake, dtype=dt).reshape(len(fake), -1)
    u = np.asarray(u, dtype=dt)
    b, d = real.shape
    emb, emb_cache = netp.critic_embed.forward(cond_norm)

    # Wasserstein part: one pass over the stacked inputs [real, emb; fake, emb]
    u_all = np.empty((2 * b, d + emb.shape[1]), dtype=dt)
    u_all[:b, :d] = real
    u_all[b:, :d] = fake
    u_all[:b, d:] = emb
    u_all[b:, d:] = emb
    f_all, cache_all = netp.critic.forward(u_all)
    wasserstein = float(f_all[b:].mean() - f_all[:b].mean())
    d_out = np.full((2 * b, 1), 1.0 / b, dtype=dt)
    d_out[:b] = -1.0 / b
    # only the embedding columns of the input gradient are read
    grads, d_emb_all = netp.critic.backward(cache_all, d_out, in_cols=slice(d, None))
    d_emb = d_emb_all[:b] + d_emb_all[b:]

    # gradient penalty: needs second derivatives through the input gradient
    x_hat = _interpolates(real, fake, u)
    s, g_img, cache_h = _gp_terms(netp, x_hat, emb)
    gp = gp_lambda * float(np.mean((s - 1.0) ** 2))

    s_safe = np.maximum(s, 1e-12)
    coef = (gp_lambda * 2.0 * (s - 1.0) / (s_safe * b))[:, None].astype(dt)
    tangent = np.zeros((b, d + emb.shape[1]), dtype=dt)
    tangent[:, :d] = g_img
    gp_grads, d_emb_gp = netp.critic.grad_of_jvp(cache_h, tangent, coef, slice(d, None))
    d_emb += d_emb_gp
    for gw, gg in zip(grads, gp_grads):
        gw += gg
    emb_grads, _ = netp.critic_embed.backward(emb_cache, d_emb)

    total = wasserstein + gp
    if not math.isfinite(total):
        raise TrainingDivergedError(-1, "non-finite critic loss")
    parts = {"total": total, "wasserstein": wasserstein, "gp": gp, "gp_norm": float(s.mean())}
    return parts, emb_grads + grads


def generator_forward(netp: NetworkParams, z, cond_norm):
    emb, emb_cache = netp.gen_embed.forward(cond_norm)
    y, cache = netp.generator.forward(np.concatenate([z, emb], axis=1))
    return y, emb_cache, cache


def generator_loss_and_grads(netp: NetworkParams, z, cond_norm):
    b = z.shape[0]
    y, emb_cache, gen_cache = generator_forward(netp, z, cond_norm)
    f, critic_cache = _critic_apply(netp, y, cond_norm)
    loss = float(-f.mean())

    # critic params frozen: only the matrix columns of its input gradient count
    d_y = netp.critic.input_grad(
        critic_cache, np.full((b, 1), -1.0 / b, dtype=netp.critic.dtype),
        slice(0, y.shape[1]))
    gen_grads, d_emb = netp.generator.backward(
        gen_cache, d_y, in_cols=slice(netp.noise_dim, None))
    emb_grads, _ = netp.gen_embed.backward(emb_cache, d_emb)
    if not math.isfinite(loss):
        raise TrainingDivergedError(-1, "non-finite generator loss")
    return loss, emb_grads + gen_grads


# -- data feeding ---------------------------------------------------------------


def _to_preimage(x):
    """arctanh of pixels clipped away from +/-1 (the squash preimage)."""
    return np.arctanh(np.clip(x, -0.995, 0.995))


class ArrayBatches:
    """Minibatches over materialized (images, conditions) arrays."""

    def __init__(self, images, conditions, batch_size: int):
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
        self.batch_size = batch_size

    def preimage_moments(self):
        x = _to_preimage(self.images.astype(np.float64).reshape(len(self.images), -1))
        return x.mean(axis=0), x.std(axis=0)

    def epoch_batches(self, order_rng):
        idx = order_rng.permutation(len(self.images))
        for start in range(0, len(idx) - self.batch_size + 1, self.batch_size):
            take = idx[start:start + self.batch_size]
            x = self.images[take].astype(np.float64).reshape(len(take), -1)
            yield x, self.conditions[take]


@dataclass
class TrainingLog:
    """Per-critic-step losses plus model bookkeeping."""

    steps: list = field(default_factory=list)
    critic_losses: list = field(default_factory=list)
    gen_losses: list = field(default_factory=list)  # NaN when no generator step
    gp_terms: list = field(default_factory=list)
    wasserstein: list = field(default_factory=list)  # mean f(fake) - mean f(real)
    gp_norms: list = field(default_factory=list)  # mean ||grad_m f|| at the interpolates
    param_counts: dict = field(default_factory=dict)

    def rows(self):
        for s, c, g, p, w, n in zip(self.steps, self.critic_losses, self.gen_losses,
                                    self.gp_terms, self.wasserstein, self.gp_norms):
            yield {"step": s, "critic_loss": c, "gen_loss": g, "gp_term": p,
                   "wasserstein": w, "gp_norm": n}


# -- training -------------------------------------------------------------------


def _dims(shape) -> str:
    return "x".join(str(d) for d in shape)


def train_wgan_gp(data, hyper: WganGpHyperparams, seed: int):
    """Train on channel matrices; returns (NetworkParams, TrainingLog).

    data is an ArrayBatches source or a (matrices, conditions) pair whose
    samples have shape hyper.image_shape (a DataError otherwise).
    Deterministic for fixed seed and thread count: batch order, noise,
    interpolation draws and init each use a named substream of the seed.
    """
    hyper.validate()
    if isinstance(data, tuple):
        data = ArrayBatches(data[0], data[1], hyper.batch_size)
    if data.images.shape[1:] != tuple(hyper.image_shape):
        raise DataError(f"training samples have shape {_dims(data.images.shape[1:])}, "
                        f"the model expects {_dims(hyper.image_shape)}")
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
    step = 0
    for epoch in range(hyper.epochs):
        order_rng = substream(seed, "batching", epoch)
        for x, c_raw in data.epoch_batches(order_rng):
            step += 1
            b = x.shape[0]
            x = x.astype(dt, copy=False)
            c = netp.normalize_conditions(c_raw).astype(dt, copy=False)

            z = substream(seed, "noise", step).standard_normal((b, hyper.noise_dim))
            fake, _, _ = generator_forward(netp, z.astype(dt), c)
            u = substream(seed, "gp", step).uniform(size=(b, 1))
            parts, grads = critic_loss_and_grads(
                netp, x, fake, c, u, hyper.gp_lambda)
            adam_step(netp.critic_params(), grads, opt_c,
                      hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2)

            gen_loss = math.nan
            if step % hyper.critic_steps_per_gen_step == 0:
                z2 = substream(seed, "noise-gen", step).standard_normal(
                    (b, hyper.noise_dim)).astype(dt)
                gen_loss, ggrads = generator_loss_and_grads(netp, z2, c)
                adam_step(netp.generator_params(), ggrads, opt_g,
                          hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2)

            log.steps.append(step)
            log.critic_losses.append(parts["total"])
            log.gen_losses.append(gen_loss)
            log.gp_terms.append(parts["gp"])
            log.wasserstein.append(parts["wasserstein"])
            log.gp_norms.append(parts["gp_norm"])
    return netp, log


def sample(netp: NetworkParams, cond, n: int, seed: int) -> np.ndarray:
    """n channel matrices under the given condition(s), in [-1, 1].

    cond is one (dist2d, height) pair applied to every sample, or an (n, 2)
    array pairing one condition per sample.  Sample i depends only on
    (seed, i) and its condition, so subsets are stable.
    """
    netp.check_finite()
    if n == 0:
        return np.zeros((0, *netp.image_shape))
    cond = np.asarray(cond, dtype=np.float64)
    if cond.ndim == 1:
        cond = np.broadcast_to(cond, (n, 2))
    if cond.shape != (n, 2):
        raise DataError("cond must be one pair or an (n, 2) array")
    dt = netp.generator.dtype
    c = netp.normalize_conditions(cond).astype(dt)

    z = np.stack([substream(seed, "sampling", i).standard_normal(netp.noise_dim)
                  for i in range(n)]).astype(dt)
    out = np.empty((n, *netp.image_shape))
    for start in range(0, n, 1024):
        stop = min(start + 1024, n)
        # drop the forward caches now: held into the next chunk, they double the peak
        y = generator_forward(netp, z[start:stop], c[start:stop])[0]
        out[start:stop] = y.reshape(stop - start, *netp.image_shape)
    return out
