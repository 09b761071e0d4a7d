"""Generative backends: optimizer, losses, training loop, resampler."""

import math
import re
import statistics
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanimg import io
from chanimg.errors import DataError, TrainingDivergedError
from chanimg.genmodel import nn, resampler, wgan
from chanimg.genmodel import (
    AdamState,
    EmpiricalResampler,
    Mlp,
    WganGpHyperparams,
    adam_step,
    sample,
    train_wgan_gp,
)
from chanimg.genmodel.resampler import BLOCK
from chanimg.genmodel.wgan import (
    build_networks,
    critic_loss_and_grads,
    generator_forward,
    generator_loss_and_grads,
    network_sizes,
    preimage_moments,
)
from chanimg.rng import substream

TINY = dict(hidden=(6, 5), noise_dim=4)


def tiny_netp(seed=0, **kw):
    hyper = WganGpHyperparams(**{**TINY, **kw})
    return build_networks(hyper, [0.0, 0.0], [1.0, 1.0], substream(seed, "init")), hyper


# -- Adam ------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = AdamState.zeros(params)
    before = [p.copy() for p in params]
    adam_step(params, [np.zeros_like(p) for p in params], state, 1e-3, 0.5, 0.9)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p, b)
    assert all(np.all(m == 0.0) for m in state.m)


def test_adam_first_step_magnitude_is_lr():
    for g in (3.7, -0.004, 1e6):
        params = [np.array([0.0])]
        state = AdamState.zeros(params)
        adam_step(params, [np.array([g])], state, 1e-3, 0.5, 0.9)
        # bias-corrected ratio is sign(g) up to the eps regularizer
        assert params[0][0] == pytest.approx(-1e-3 * np.sign(g), rel=1e-4)


def test_adam_closed_form_first_step():
    g = 0.25
    lr, b1, b2, eps = 1e-2, 0.5, 0.9, nn.ADAM_EPS
    params = [np.array([1.0])]
    adam_step(params, [np.array([g])], AdamState.zeros(params), lr, b1, b2)
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    assert params[0][0] == 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)


def test_adam_deterministic():
    def run():
        params = [np.array([1.0, 2.0])]
        state = AdamState.zeros(params)
        for i in range(5):
            adam_step(params, [np.array([0.1 * i, -0.2])], state, 1e-3, 0.5, 0.9)
        return params[0].copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    # the bad values sit past the first Adam block of a multi-block parameter
    for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
        params = [np.ones(nn.ADAM_CHUNK + 10)]
        g = np.zeros_like(params[0])
        g[-len(bad):] = bad
        state = AdamState.zeros(params)
        with pytest.raises(TrainingDivergedError):
            adam_step(params, [g], state, 1e-3, 0.5, 0.9)
        assert np.all(params[0] == 1.0) and not state.m[0].any() and not state.v[0].any()


def reference_adam(params, grad_steps, lr, b1, b2, eps):
    """Textbook Adam over whole arrays, one expression per moment."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        for i, g in enumerate(grads):
            m[i] = m[i] * b1 + (1.0 - b1) * g
            v[i] = v[i] * b2 + (1.0 - b2) * g * g
            params[i] = params[i] - lr * (m[i] / (1.0 - b1 ** t)) / (
                np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
    return params, m, v


def test_adam_matches_reference_bitwise():
    # shapes cover several blocks with a short last one, a 1-D parameter
    # longer than one block, a single element, float32 and a Fortran-order
    # parameter whose blocks are strided views
    rng = np.random.default_rng(19)
    shapes = [(3 * nn.ADAM_CHUNK // 100 + 7, 100), (nn.ADAM_CHUNK + 5,), (1, 1), (40, 30)]
    params = [rng.standard_normal(s) for s in shapes]
    params.append(rng.standard_normal((17, 9)).astype(np.float32))
    params.append(np.asfortranarray(rng.standard_normal((300, 70))))
    grad_steps = [[rng.standard_normal(p.shape).astype(p.dtype) * 10.0 ** -k for p in params]
                  for k in range(3)]
    want_p, want_m, want_v = reference_adam(params, grad_steps, 1e-3, 0.5, 0.9, 1e-8)
    state = AdamState.zeros(params)
    for grads in grad_steps:
        adam_step(params, grads, state, 1e-3, 0.5, 0.9)
    for got, want in zip((params, state.m, state.v), (want_p, want_m, want_v)):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_adam_zero_gradient_decays_moments():
    params = [np.array([0.0])]
    state = AdamState.zeros(params)
    adam_step(params, [np.array([1.0])], state, 0.0, 0.5, 0.9)
    m1 = state.m[0][0]
    adam_step(params, [np.array([0.0])], state, 0.0, 0.5, 0.9)
    assert state.m[0][0] == 0.5 * m1


# -- Mlp exactness -----------------------------------------------------------------


def reference_sigmoid(a):
    """Two-branch masked logistic function."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_matches_masked_reference(dtype):
    edges = [0.0, 1e-300, 36.0, 745.0, 1000.0]
    a = np.array(edges + [-x for x in edges] + [np.nan])
    a = np.concatenate([a, np.random.default_rng(20).normal(0.0, 20.0, 500)]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nn._sigmoid(a)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, reference_sigmoid(a))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_bits_match_two_branch_where(dtype):
    # the branchless numerator gives the bits of choosing between 1/d and e/d
    edges = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    a = np.concatenate([edges, np.random.default_rng(21).normal(0.0, 20.0, 500)]).astype(dtype)
    e = np.exp(-np.abs(a))
    d = 1.0 + e
    want = np.where(a >= 0, 1.0 / d, e / d)
    got = nn._sigmoid(a)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def check_column_ranges(critic_sizes, generator_sizes, dtype, batch):
    """A column range of each input-side product equals those columns of the full one.

    Bit-identical checkpoints rely on it: backward, input_grad and
    grad_of_jvp form only the input columns the caller reads.
    """
    d = critic_sizes[0] - 32  # matrix columns; the embedding takes the last 32
    rng = np.random.default_rng(21)
    critic = Mlp.init(critic_sizes, "linear", rng, dtype=dtype)
    generator = Mlp.init(generator_sizes, "tanh", rng, dtype=dtype)
    x = rng.uniform(-1, 1, (batch, critic_sizes[0])).astype(dtype)
    v = rng.standard_normal((batch, critic_sizes[0])).astype(dtype)
    r = rng.standard_normal((batch, 1)).astype(dtype)
    _, cache = critic.forward(x)
    full_grads, full = critic.backward(cache, r)
    full_gp, full_gp_in = critic.grad_of_jvp(cache, v, r)
    for cols in (slice(d, None), slice(0, d)):
        grads, part = critic.backward(cache, r, in_cols=cols)
        np.testing.assert_array_equal(part, full[:, cols])
        for a, b in zip(grads, full_grads):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(critic.input_grad(cache, r, cols), full[:, cols])
        gp, part = critic.grad_of_jvp(cache, v, r, cols)
        np.testing.assert_array_equal(part, full_gp_in[:, cols])
        for a, b in zip(gp, full_gp):
            np.testing.assert_array_equal(a, b)

    y, cache = generator.forward(rng.standard_normal((batch, 96)).astype(dtype))
    d_y = rng.standard_normal(y.shape).astype(dtype)
    _, full = generator.backward(cache, d_y)
    _, part = generator.backward(cache, d_y, in_cols=slice(64, None))
    np.testing.assert_array_equal(part, full[:, 64:])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [3, 64])
def test_column_ranges_are_columns_of_full_result(dtype, batch):
    # the shapes of the former 64x50-image model: critic input = 3,200 image
    # + 32 embedding columns, generator output = 3,200 pixels
    check_column_ranges([3232, 256, 256, 1], [96, 256, 256, 3200], dtype, batch)


@pytest.mark.parametrize(("dtype", "batch"), [
    (np.float64, 3), (np.float64, 64), (np.float64, 256), (np.float32, 64), (np.float32, 256)])
def test_column_ranges_at_the_training_shapes(dtype, batch):
    # critic input = 200 matrix + 32 embedding columns, generator input = 64
    # noise + 32 embedding columns and output = 200 matrix cells; 256 rows is
    # the training batch.  float32 below 32 rows is not covered: there
    # OpenBLAS 0.3.31 sums a column range in another order than the full
    # product, so a float32 run at such a batch does not reproduce the bits
    # of computing every column (see CHANGES.md)
    check_column_ranges([232, 256, 256, 1], [96, 256, 256, 200], dtype, batch)


# -- the scratch -------------------------------------------------------------------


def step_inputs(rng, b, noise_dim=64):
    """(real, fake, cond_norm, u, z) of one training step on 8x25 matrices."""
    return (rng.uniform(-1, 1, (b, 8, 25)), rng.uniform(-1, 1, (b, 8, 25)),
            rng.uniform(-1, 1, (b, 2)), rng.uniform(size=(b, 1)),
            rng.standard_normal((b, noise_dim)))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("act", ["silu"])  # every hidden layer's, named in the test id
def test_scratch_steps_match_fresh_arrays(dtype, act):
    # three consecutive steps on one scratch per row block, the second block
    # on the worker thread, with the batch size changing between them: a
    # stale shape, or a live array that a later take overwrote, would change
    # a bit of some loss part or gradient.  A short switch interval makes the
    # two threads interleave often
    hyper = WganGpHyperparams(hidden=(48, 40), dtype=dtype)
    netp = build_networks(hyper, [10.0, 1.6], [500.0, 30.0], substream(31, "init"))
    rng = np.random.default_rng(32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        check_blocked_steps_match_fresh_arrays(netp, dtype, rng)
    finally:
        sys.setswitchinterval(interval)


def check_blocked_steps_match_fresh_arrays(netp, dtype, rng):
    fresh = wgan.RowBlocks((None, None))
    with wgan.RowBlocks((nn.Scratch(), nn.Scratch()), threaded=True) as blocks:
        for b in (64, 41, 96):
            real, fake, cond, u, z = (a.astype(dtype) for a in step_inputs(rng, b))
            want_parts, want = critic_loss_and_grads(netp, real, fake, cond, u, 10.0, fresh)
            blocks.reset()
            parts, got = critic_loss_and_grads(netp, real, fake, cond, u, 10.0, blocks)
            assert parts == want_parts
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

            want_loss, want = generator_loss_and_grads(netp, z, cond, fresh)
            blocks.reset()
            loss, got = generator_loss_and_grads(netp, z, cond, blocks)
            assert loss == want_loss
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

            blocks.reset()
            y = generator_forward(netp, z, cond, blocks)
            assert y.tobytes() == generator_forward(netp, z, cond, fresh).tobytes()


def assert_close_to_scale(got, want, rel=1e-12):
    """got within rel of want, elementwise or of want's largest magnitude."""
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * np.abs(want).max())


@pytest.mark.parametrize("b", [1, 2, 33, 256])
def test_row_blocks_add_up_to_one_block(b):
    # the batch as two row blocks, each normalized by the whole batch, sums
    # to the batch as one block within float64 rounding; BLAS may round a
    # row differently at another row count, so single cells near zero are
    # compared against their array's scale
    hyper = WganGpHyperparams(hidden=(48, 40))
    netp = build_networks(hyper, [10.0, 1.6], [500.0, 30.0], substream(35, "init"))
    real, fake, cond, u, z = step_inputs(np.random.default_rng(36), b)
    two = wgan.RowBlocks((None, None))

    parts, grads = critic_loss_and_grads(netp, real, fake, cond, u, 10.0, two)
    want_parts, want = critic_loss_and_grads(netp, real, fake, cond, u, 10.0)
    assert parts.keys() == want_parts.keys()
    for key in parts:
        assert parts[key] == pytest.approx(want_parts[key], rel=1e-12), key
    for g, w in zip(grads, want, strict=True):
        assert_close_to_scale(g, w)

    loss, grads = generator_loss_and_grads(netp, z, cond, two)
    want_loss, want = generator_loss_and_grads(netp, z, cond)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for g, w in zip(grads, want, strict=True):
        assert_close_to_scale(g, w)
    assert_close_to_scale(generator_forward(netp, z, cond, two), generator_forward(netp, z, cond))


def test_row_blocks_cut_halves_and_raise_the_workers_error():
    seen = []
    assert wgan.RowBlocks().map(lambda rows, scratch: rows, 7) == [slice(0, 7)]
    with wgan.RowBlocks((None, None), threaded=True) as blocks:
        assert blocks.map(lambda rows, scratch: (rows, scratch), 7) == \
            [(slice(0, 3), None), (slice(3, 7), None)]
        assert blocks.map(lambda rows, scratch: rows, 1) == [slice(0, 1)]

        def fail_second(rows, scratch):
            seen.append(rows)
            if rows.start:
                raise ValueError("second block")

        with pytest.raises(ValueError, match="second block"):
            blocks.map(fail_second, 4)
    assert sorted(seen, key=lambda r: r.start) == [slice(0, 2), slice(2, 4)]


def test_training_steps_allocate_little_after_the_first():
    # the default model at B=256: without a scratch a critic step allocates
    # about 20 MB of temporaries; with one, only small arrays remain
    hyper = WganGpHyperparams()
    netp = build_networks(hyper, [10.0, 1.6], [500.0, 30.0], substream(33, "init"))
    real, fake, cond, u, z = step_inputs(np.random.default_rng(34), 256)
    blocks = wgan.RowBlocks((nn.Scratch(), nn.Scratch()))
    steps = (lambda: critic_loss_and_grads(netp, real, fake, cond, u, 10.0, blocks),
             lambda: generator_loss_and_grads(netp, z, cond, blocks))
    for step in steps:  # the first run of each adds the chunks it needs
        blocks.reset()
        step()
    tracemalloc.start()
    try:
        for _ in range(2):
            for step in steps:
                blocks.reset()
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                step()
                assert tracemalloc.get_traced_memory()[1] - before <= 4 * 2**20
    finally:
        tracemalloc.stop()


def test_scratch_frame_rewinds_and_reuses():
    scratch = nn.Scratch()
    keep = scratch.take((3, 5), np.float64)
    with scratch.frame():
        inner = scratch.take((1000,), np.float32)
    again = scratch.take((10,), np.float32)
    assert np.shares_memory(inner, again) and not np.shares_memory(keep, again)
    big = scratch.take((nn.Scratch.CHUNK,), np.uint8)  # no room left: a new chunk
    assert not np.shares_memory(big, keep) and not np.shares_memory(big, again)
    scratch.reset()
    assert np.shares_memory(scratch.take((2,), np.float64), keep)
    assert nn.take(None, (2, 3), np.float32).shape == (2, 3)


# -- value-only reference losses ------------------------------------------------------
#
# The textbook losses, written out from the networks' forward and input-gradient
# passes; the finite-difference checks differentiate these.


def critic_loss(netp, real, fake, cond_norm, u, gp_lambda):
    """{"total", "wasserstein", "gp", "gp_norm"} of the critic objective, value only."""
    real = np.asarray(real).reshape(len(real), -1)
    fake = np.asarray(fake).reshape(len(fake), -1)
    emb, _ = netp.critic_embed.forward(cond_norm)
    f_real, _ = netp.critic.forward(np.concatenate([real, emb], axis=1))
    f_fake, _ = netp.critic.forward(np.concatenate([fake, emb], axis=1))
    wasserstein = float(f_fake.mean() - f_real.mean())
    x_hat = u * real + (1.0 - u) * fake
    f, cache = netp.critic.forward(np.concatenate([x_hat, emb], axis=1))
    g = netp.critic.input_grad(cache, np.ones_like(f), slice(0, x_hat.shape[1]))
    s = np.sqrt(np.sum(g * g, axis=1))
    gp = gp_lambda * float(np.mean((s - 1.0) ** 2))
    return {"total": wasserstein + gp, "wasserstein": wasserstein, "gp": gp,
            "gp_norm": float(s.mean())}


def generator_loss(netp, z, cond_norm):
    """-mean critic(G(z, c), c), value only."""
    g_emb, _ = netp.gen_embed.forward(cond_norm)
    y, _ = netp.generator.forward(np.concatenate([z, g_emb], axis=1))
    c_emb, _ = netp.critic_embed.forward(cond_norm)
    f, _ = netp.critic.forward(np.concatenate([y, c_emb], axis=1))
    return float(-f.mean())


# -- critic loss special cases ------------------------------------------------------


def test_zero_critic_loss_is_lambda():
    netp, _ = tiny_netp()
    for p in netp.critic.params:
        p[:] = 0.0
    rng = np.random.default_rng(0)
    real = rng.uniform(-1, 1, (8, 200))
    fake = rng.uniform(-1, 1, (8, 200))
    cond = rng.uniform(-1, 1, (8, 2))
    u = rng.uniform(size=(8, 1))
    for lam in (1.0, 10.0):
        parts = critic_loss(netp, real, fake, cond, u, lam)
        assert parts["total"] == pytest.approx(lam, rel=1e-12)
        assert parts["wasserstein"] == 0.0


def test_unit_linear_critic_has_zero_gp():
    netp, _ = tiny_netp()
    d = 200
    w = np.zeros((1, d + netp.critic_embed.sizes[-1]))
    w[0, :d] = np.random.default_rng(1).normal(size=d)
    w[0, :d] /= np.linalg.norm(w[0, :d])
    netp.critic = Mlp([w.shape[1], 1], "linear", [w, np.zeros(1)])
    rng = np.random.default_rng(2)
    real = rng.uniform(-1, 1, (16, d))
    fake = rng.uniform(-1, 1, (16, d))
    cond = rng.uniform(-1, 1, (16, 2))
    u = rng.uniform(size=(16, 1))
    parts = critic_loss(netp, real, fake, cond, u, 10.0)
    assert parts["total"] - parts["wasserstein"] == pytest.approx(0.0, abs=1e-20)


def test_critic_gradcheck_tiny():
    # 8x25 matrices through the full conditional loss of a network with
    # small hidden layers: analytic gradients match central differences,
    # including the second-order penalty path
    netp, _ = tiny_netp(seed=3)
    rng = np.random.default_rng(4)
    b = 3
    real = rng.uniform(-1, 1, (b, 200))
    fake = rng.uniform(-1, 1, (b, 200))
    cond = rng.uniform(-1, 1, (b, 2))
    u = rng.uniform(size=(b, 1))
    # two row blocks: the gradients checked are the sum of the blocks'
    two = wgan.RowBlocks((None, None))
    parts, grads = critic_loss_and_grads(netp, real, fake, cond, u, 10.0, two)
    ref = critic_loss(netp, real, fake, cond, u, 10.0)
    assert parts.keys() == ref.keys()
    for key in ref:
        assert parts[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-15), key
    params = netp.critic_params()
    # the loss is about 7.6, so at h = 1e-6 its float64 rounding (~1e-9 in
    # the difference quotient) swamps gradients near 1e-6; at 1e-5 the
    # worst relative error is 1.5e-5, with the truncation error still far
    # below the bound
    h = 1e-5
    for pi, p in enumerate(params):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = critic_loss(netp, real, fake, cond, u, 10.0)["total"]
            p[idx] = orig - h
            lm = critic_loss(netp, real, fake, cond, u, 10.0)["total"]
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[pi][idx]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)


def test_generator_gradcheck_tiny():
    netp, _ = tiny_netp(seed=5)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((3, 4))
    cond = rng.uniform(-1, 1, (3, 2))
    _, grads = generator_loss_and_grads(netp, z, cond, wgan.RowBlocks((None, None)))
    h = 1e-6
    for pi, p in enumerate(netp.generator_params()):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = generator_loss(netp, z, cond)
            p[idx] = orig - h
            lm = generator_loss(netp, z, cond)
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[pi][idx]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)


def test_gp_interpolates_on_segment():
    # u in [0,1] keeps every interpolate between its real and fake endpoints
    rng = np.random.default_rng(7)
    real = rng.uniform(-1, 1, (32, 6))
    fake = rng.uniform(-1, 1, (32, 6))
    u = rng.uniform(size=(32, 1))
    x_hat = u * real + (1 - u) * fake
    lo = np.minimum(real, fake)
    hi = np.maximum(real, fake)
    assert np.all(x_hat >= lo - 1e-12) and np.all(x_hat <= hi + 1e-12)


# -- training loop -------------------------------------------------------------------


def toy_data(n=256, shape=(8, 25)):
    rng = np.random.default_rng(8)
    images = rng.uniform(-0.5, 0.5, (n, *shape))
    conds = np.column_stack([rng.uniform(10, 500, n), rng.choice([1.6, 30.0], n)])
    return images, conds


def reference_preimage_moments(images):
    """Per-pixel mean and population std of arctanh(pixel clipped to +-0.995), value by value."""
    pixels = [[math.atanh(min(max(v, -0.995), 0.995)) for v in col]
              for col in images.reshape(len(images), -1).T.tolist()]
    return (np.array([statistics.fmean(col) for col in pixels]),
            np.array([statistics.pstdev(col) for col in pixels]))


def test_preimage_moments_are_the_clipped_arctanh_moments():
    images, conds = toy_data(n=40)
    images[0, 0, :3] = (-1.0, 0.999, 1.0)  # clipped to -+0.995
    mu, sd = preimage_moments(images.astype(np.float32))
    want_mu, want_sd = reference_preimage_moments(images.astype(np.float32))
    np.testing.assert_allclose(mu, want_mu, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(sd, want_sd, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 6, 7, 8, 20])
def test_preimage_moments_in_blocks_are_the_whole_sets_moments(monkeypatch, n):
    # blocks of 7 samples: one short block, one full, one sample over, three blocks
    monkeypatch.setattr(wgan, "MOMENT_ROWS", 7)
    images = np.random.default_rng(n).uniform(-1.1, 1.1, (n, 8, 25)).astype(np.float32)
    mu, sd = preimage_moments(images)
    x = np.arctanh(np.clip(images.astype(np.float64).reshape(n, -1), -0.995, 0.995))
    assert mu.tobytes() == x.mean(axis=0).tobytes()
    assert sd.tobytes() == x.std(axis=0).tobytes()


def test_preimage_moments_hold_a_few_blocks():
    # measured: 6.6 MB at 10,000 and at 50,000 samples; 240 MB at 50,000
    # while the whole set was taken in float64, clipped and mapped at once
    n = 10_000
    matrices = np.zeros((n, 8, 25), dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        preimage_moments(matrices)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5 * wgan.MOMENT_ROWS * 200 * 8  # 8.2 MB; the float64 set is 16 MB


class Calibrated(Exception):
    """Stops train_wgan_gp once it has calibrated the generator's output layer."""


@pytest.mark.parametrize("mode", ["data_mean", "data_moments"])
def test_output_init_starts_at_the_datas_preimage_moments(monkeypatch, mode):
    images, conds = toy_data(n=300)
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64, output_init=mode)
    fan_in = build_networks(replace(hyper, output_init="fan_in"), conds.min(axis=0),
                            conds.max(axis=0), substream(4, "init"))
    calibrate = wgan.calibrate_output_layer

    def calibrate_and_stop(netp, mode, mu, sd, z, cond_norm):
        calibrate(netp, mode, mu, sd, z, cond_norm)
        raise Calibrated(netp, z, cond_norm)

    monkeypatch.setattr(wgan, "calibrate_output_layer", calibrate_and_stop)
    with pytest.raises(Calibrated) as calibrated:
        train_wgan_gp(images, conds, hyper, seed=4)
    netp, z, cond_norm = calibrated.value.args
    want_mu, want_sd = reference_preimage_moments(images)
    np.testing.assert_allclose(netp.generator.params[-1], want_mu, rtol=1e-12, atol=1e-15)
    # the output bias, and in data_moments the output weights, are all that differ from fan_in
    changed = 1 if mode == "data_mean" else 2
    for got, want in zip(netp.generator_params()[:-changed] + netp.critic_params(),
                         fan_in.generator_params()[:-changed] + fan_in.critic_params()):
        assert got.tobytes() == want.tobytes()
    if mode == "data_moments":  # the pre-tanh spread over the calibration batch is the data's
        _, cache = netp.generator.forward(
            np.concatenate([z, netp.gen_embed.forward(cond_norm)[0]], axis=1))
        np.testing.assert_allclose(cache["a"][-1].std(axis=0), want_sd, rtol=1e-12)
    else:
        assert netp.generator.params[-2].tobytes() == fan_in.generator.params[-2].tobytes()


def test_fan_in_training_calibrates_nothing(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a fan_in run calibrated its output layer")

    images, conds = toy_data()
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64)
    written = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(wgan, "calibrate_output_layer", refuse)
            monkeypatch.setattr(wgan, "preimage_moments", refuse)
        netp, _ = train_wgan_gp(images, conds, hyper, seed=4)
        io.write_wgan_checkpoint(tmp_path / "m.ckpt", netp, seed=4)
        written.append((tmp_path / "m.ckpt").read_bytes())
    assert written[0] == written[1]


def log_column(log, name):
    """One column of a TrainingLog's rows."""
    return [row[log.COLUMNS.index(name)] for row in log.rows]


def test_training_deterministic():
    images, conds = toy_data()
    hyper = WganGpHyperparams(**TINY, epochs=2, batch_size=64)

    netp1, log1 = train_wgan_gp(images, conds, hyper, seed=9)
    netp2, log2 = train_wgan_gp(images, conds, hyper, seed=9)
    assert log_column(log1, "critic_loss") == log_column(log2, "critic_loss")
    assert log_column(log1, "gen_loss")[4] == log_column(log2, "gen_loss")[4]
    for a, b in zip(netp1.generator_params(), netp2.generator_params()):
        np.testing.assert_array_equal(a, b)
    netp3, log3 = train_wgan_gp(images, conds, hyper, seed=10)
    assert log_column(log1, "critic_loss") != log_column(log3, "critic_loss")


def test_training_log_contents():
    images, conds = toy_data()
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64, critic_steps_per_gen_step=2)
    netp, log = train_wgan_gp(images, conds, hyper, seed=11)
    assert all(len(row) == len(log.COLUMNS) for row in log.rows)
    assert log_column(log, "step") == [1, 2, 3, 4]  # 256/64 batches (exact split)
    assert all(np.isfinite(log_column(log, "critic_loss")))
    gen_loss = log_column(log, "gen_loss")
    assert math.isnan(gen_loss[0]) and math.isfinite(gen_loss[1])
    assert log.param_counts == netp.param_counts()
    assert log.param_counts["generator"] > 0 and log.param_counts["critic"] > 0
    # the total is the Wasserstein estimate plus the weighted penalty
    for _, total, _, gp, w, *_ in log.rows:
        assert total == pytest.approx(w + gp, rel=1e-12, abs=1e-15)
    assert all(n > 0 and math.isfinite(n) for n in log_column(log, "gp_norm"))
    # gradient norms: every critic step, and the generator steps only
    assert all(n > 0 and math.isfinite(n) for n in log_column(log, "critic_grad_norm"))
    gen_grad_norm = log_column(log, "gen_grad_norm")
    assert [math.isnan(n) for n in gen_grad_norm] == [True, False, True, False]
    assert all(n > 0 for n in gen_grad_norm[1::2])


@pytest.mark.parametrize("hidden", [(256, 256), (6, 5), (7,)])
def test_networks_map_noise_and_condition_to_the_matrix(hidden):
    # every network's sizes are network_sizes', and the generator makes the
    # 200 values of one 8x25 matrix from noise and a 32-wide embedding
    netp, hyper = tiny_netp(hidden=hidden)
    sizes = network_sizes(hyper.noise_dim, hidden)
    assert sizes["generator"] == [4 + 32, *hidden, 200]
    assert sizes["critic"] == [200 + 32, *hidden, 1]
    assert sizes["gen_embed"] == sizes["critic_embed"] == [2, 32, 32]
    for name, want in sizes.items():
        assert getattr(netp, name).sizes == want
        assert all(p.dtype == np.float64 for p in getattr(netp, name).params)
    cond = np.random.default_rng(1).uniform(-1, 1, (3, 2))
    y = generator_forward(netp, np.zeros((3, 4)), cond)
    assert y.shape == (3, 200)
    assert sample(netp, [100.0, 1.6], 3, seed=0).shape == (3, 8, 25)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 1), (25, 8)])
def test_training_rejects_samples_of_another_shape(shape):
    images, conds = toy_data(n=64, shape=shape)
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=16)
    with pytest.raises(DataError, match="shape .* the model expects 8x25"):
        train_wgan_gp(images, conds, hyper, seed=0)


def test_hyperparameters_need_a_hidden_layer():
    # a checkpoint's hidden widths are a non-empty list: training makes no
    # network that no reader would load
    with pytest.raises(DataError, match="hidden"):
        WganGpHyperparams(hidden=()).validate()


@pytest.mark.parametrize(("field", "value"), [
    ("epochs", 2.0), ("epochs", True), ("epochs", "3"),
    ("batch_size", 16.0), ("batch_size", True), ("batch_size", np.float64(16)),
    ("critic_steps_per_gen_step", 5.0), ("critic_steps_per_gen_step", True),
    ("noise_dim", 8.0), ("noise_dim", np.True_),
    ("hidden", (2.5,)), ("hidden", (16, True)), ("hidden", 16), ("hidden", "16"),
])
def test_hyperparameters_need_integer_counts(field, value):
    # each would pass a sign check and then fail inside numpy or range, or
    # (True) train with a count of 1
    with pytest.raises(DataError, match=field):
        WganGpHyperparams(**{field: value}).validate()
    images, conds = toy_data(n=64)
    with pytest.raises(DataError, match=field):
        train_wgan_gp(images, conds,
                      WganGpHyperparams(**{**TINY, "epochs": 1, "batch_size": 16, field: value}),
                      seed=0)


def test_hyperparameters_take_numpy_integers():
    WganGpHyperparams(epochs=np.int64(2), batch_size=np.int32(16), hidden=[np.int64(8)],
                      noise_dim=np.uint8(4)).validate()


def test_training_drops_last_partial_batch():
    images, conds = toy_data(n=100)
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64)
    _, log = train_wgan_gp(images, conds, hyper, seed=12)
    assert log_column(log, "step") == [1]  # 100 -> one full batch of 64, remainder dropped


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("seed", [7, 9])
def test_batches_in_the_training_dtype_write_the_same_checkpoint(tmp_path, dtype, seed):
    """float32 matrices cast once to the training dtype: the float64 round trip was exact."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(-1, 1, (96, 8, 25)).astype(np.float32)
    conds = np.column_stack([rng.uniform(10, 500, 96), rng.choice([1.6, 30.0], 96)])
    hyper = WganGpHyperparams(hidden=(16, 16), noise_dim=8, epochs=2, batch_size=32,
                              critic_steps_per_gen_step=2, dtype=dtype)
    for name, matrices in (("direct", images), ("round-trip", images.astype(np.float64))):
        netp, _ = train_wgan_gp(matrices, conds, hyper, seed)
        io.write_wgan_checkpoint(tmp_path / name, netp, seed=seed)
    assert (tmp_path / "direct").read_bytes() == (tmp_path / "round-trip").read_bytes()


def worker_training(monkeypatch, cpus, blas_threads=1):
    """Make train_wgan_gp split every batch of two rows or more into two row
    blocks, on cpus usable CPUs with OPENBLAS_NUM_THREADS set to blas_threads:
    the worker is on at cpus=2 and off at cpus=1.  Returns the names of the
    threads that ran a critic block."""
    monkeypatch.setattr(wgan, "SPLIT_WORK", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))
    monkeypatch.setattr(wgan, "usable_cpus", lambda: cpus)
    threads = set()
    critic_block = wgan._critic_block

    def recorded(*args):
        threads.add(threading.current_thread().name)
        return critic_block(*args)

    monkeypatch.setattr(wgan, "_critic_block", recorded)
    return threads


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("seed", [7, 9])
@pytest.mark.parametrize("batch", [33, 1])
def test_training_bytes_do_not_depend_on_the_worker(tmp_path, monkeypatch, dtype, seed, batch):
    rng = np.random.default_rng(seed)
    n = 3 * batch + 1  # the last batch is dropped
    images = rng.uniform(-1, 1, (n, 8, 25)).astype(np.float32)
    conds = np.column_stack([rng.uniform(10, 500, n), rng.choice([1.6, 30.0], n)])
    hyper = WganGpHyperparams(hidden=(16, 16), noise_dim=8, epochs=2, batch_size=batch,
                              critic_steps_per_gen_step=2, dtype=dtype)
    written = []
    for cpus in (2, 1):
        threads = worker_training(monkeypatch, cpus)
        netp, log = train_wgan_gp(images, conds, hyper, seed)
        # a batch of one row is one block, which the calling thread runs
        assert (len(threads) == 2) == (cpus == 2 and batch > 1)
        io.write_wgan_checkpoint(tmp_path / "m.ckpt", netp, seed=seed)
        io.write_report_csv(tmp_path / "log.csv", "training-log", seed, log.COLUMNS, log.rows)
        written.append([(tmp_path / name).read_bytes() for name in ("m.ckpt", "log.csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("cpus, blas_threads, worker", [
    (2, 1, True), (4, 1, True), (1, 1, False), (4, 2, False), (2, 2, False)])
def test_worker_runs_only_beside_a_one_thread_blas(monkeypatch, cpus, blas_threads, worker):
    threads = worker_training(monkeypatch, cpus, blas_threads)
    images, conds = toy_data()
    train_wgan_gp(images, conds,
                  WganGpHyperparams(**TINY, epochs=1, batch_size=64), seed=0)
    assert (len(threads) == 2) == worker


def test_training_joins_its_worker(monkeypatch):
    # as it returns and as it raises, train_wgan_gp leaves no thread behind
    threads = worker_training(monkeypatch, 2)
    images, conds = toy_data()
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64)
    before = threading.active_count()
    train_wgan_gp(images, conds, hyper, seed=0)
    assert len(threads) == 2
    assert threading.active_count() == before
    # a step of 1e300 sends the critic's loss to inf or NaN on step 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError):
            train_wgan_gp(images, conds,
                          WganGpHyperparams(**TINY, epochs=1, batch_size=64,
                                            learning_rate=1e300), seed=0)
    assert threading.active_count() == before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_training_rejects_nonfinite(bad):
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=8)
    images, conds = toy_data(n=8)
    images[3, 1, 0] = bad
    with pytest.raises(DataError, match="non-finite"):
        train_wgan_gp(images, conds, hyper, seed=0)
    images, conds = toy_data(n=8)
    conds[5, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        train_wgan_gp(images, conds, hyper, seed=0)


def test_training_rejects_small_dataset():
    images, conds = toy_data(n=16)
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64)
    with pytest.raises(DataError, match="smaller than one batch"):
        train_wgan_gp(images, conds, hyper, seed=0)


def test_collapse_to_constant_image():
    # identical matrices: with enough steps (100 epochs of 8 batches) the
    # generator mean lands on them
    rng = np.random.default_rng(13)
    target = rng.uniform(-0.6, 0.6, size=(8, 25))
    images = np.broadcast_to(target, (512, 8, 25)).copy()
    conds = np.tile([[100.0, 1.6]], (512, 1))
    hyper = WganGpHyperparams(hidden=(32, 32), noise_dim=8, learning_rate=1e-3,
                              epochs=100, batch_size=64, gp_lambda=1.0)
    netp, _ = train_wgan_gp(images, conds, hyper, seed=14)
    out = sample(netp, [100.0, 1.6], 512, seed=15)
    assert np.abs(out.mean(axis=0) - target).max() < 0.05


# -- sampling ---------------------------------------------------------------------


def test_sample_shapes_and_range():
    netp, _ = tiny_netp()
    out = sample(netp, [100.0, 1.6], 7, seed=0)
    assert out.shape == (7, 8, 25)
    assert np.all(np.abs(out) <= 1.0)
    assert sample(netp, [100.0, 1.6], 0, seed=0).shape == (0, 8, 25)


def test_sample_per_index_stability():
    # sample i depends on (seed, i): prefixes of a larger draw are identical,
    # also where a last block of a few rows meets a full one
    netp, _ = tiny_netp()
    a = sample(netp, [100.0, 1.6], 3, seed=1)
    b = sample(netp, [100.0, 1.6], 10, seed=1)
    np.testing.assert_array_equal(a, b[:3])
    c = sample(netp, [100.0, 1.6], 300, seed=1)
    np.testing.assert_array_equal(b, c[:10])
    np.testing.assert_array_equal(sample(netp, [100.0, 1.6], 260, seed=1), c[:260])


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3])
def test_sample_noise_is_each_samples_substream(seed):
    # sample i is row i of a generator pass over one SAMPLE_CHUNK-row block,
    # its noise row i of the "sampling" stream's (n, noise_dim) normals
    netp, _ = tiny_netp()
    cond = np.column_stack([np.linspace(10.0, 400.0, 5), np.full(5, 1.6)])
    z, c = np.zeros((wgan.SAMPLE_CHUNK, netp.noise_dim)), np.zeros((wgan.SAMPLE_CHUNK, 2))
    z[:5] = substream(seed, "sampling").standard_normal((5, netp.noise_dim))
    c[:5] = netp.normalize_conditions(cond)
    want = generator_forward(netp, z, c)[:5]
    assert sample(netp, cond, 5, seed).tobytes() == want.reshape(5, 8, 25).tobytes()


def test_sample_rejects_corrupt_params():
    netp, _ = tiny_netp()
    netp.generator.params[0][0, 0] = np.nan
    with pytest.raises(DataError):
        sample(netp, [100.0, 1.6], 1, seed=0)


def test_sample_condition_shapes():
    netp, _ = tiny_netp()
    conds = np.tile([[50.0, 1.6]], (4, 1))
    out = sample(netp, conds, 4, seed=2)
    assert out.shape == (4, 8, 25)
    # only a pair is broadcast; any other shape than (n, 2) is a DataError
    for bad in (conds[:3], [1.0, 2.0, 3.0], np.ones((4, 3)), [1.0], conds[:, :, None]):
        with pytest.raises(DataError, match="one pair or an"):
            sample(netp, bad, 4, seed=2)


# -- resampler -------------------------------------------------------------------


def test_resampler_single_image():
    images = np.full((1, 2, 2), 0.25)
    res = EmpiricalResampler(images, np.array([[100.0, 1.6]]), k=50)
    out = res.sample([300.0, 30.0], 5, seed=0)
    assert np.all(out == 0.25)


def test_resampler_k1_nearest_identity():
    rng = np.random.default_rng(16)
    images = rng.uniform(-1, 1, (20, 2, 2))
    conds = np.column_stack([np.linspace(10, 200, 20), np.full(20, 1.6)])
    res = EmpiricalResampler(images, conds, k=1)
    out = res.sample(conds[7], 3, seed=1)
    np.testing.assert_array_equal(out, np.broadcast_to(images[7], (3, 2, 2)))


def test_resampler_deterministic_and_validated():
    rng = np.random.default_rng(17)
    images = rng.uniform(-1, 1, (20, 2, 2))
    conds = np.column_stack([np.linspace(10, 200, 20), np.full(20, 1.6)])
    res = EmpiricalResampler(images, conds, k=5)
    a = res.sample([50.0, 1.6], 8, seed=3)
    b = res.sample([50.0, 1.6], 8, seed=3)
    np.testing.assert_array_equal(a, b)
    per_row = res.sample(conds[:8], 8, seed=4)
    assert per_row.shape == (8, 2, 2)
    with pytest.raises(DataError):
        EmpiricalResampler(images[:0], conds[:0])
    for bad in (conds[:3], [1.0, 2.0, 3.0], np.ones((8, 3)), [1.0], conds[:8, :, None]):
        with pytest.raises(DataError, match="one pair or an"):
            res.sample(bad, 8, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_resampler_rejects_nonfinite(bad):
    images, conds = toy_data(n=8)
    images[3, 1, 0] = bad
    with pytest.raises(DataError, match="non-finite"):
        EmpiricalResampler(images, conds)
    images, conds = toy_data(n=8)
    conds[5, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        EmpiricalResampler(images, conds)


@pytest.mark.parametrize("k", [2.7, 3.0, True, "3", None, 0, -1])
def test_resampler_k_is_a_positive_integer(k):
    images, conds = toy_data(n=8)
    with pytest.raises(DataError, match=re.escape(f"k must be a positive integer, got {k!r}")):
        EmpiricalResampler(images, conds, k=k)


def test_resampler_k_takes_numpy_integers_and_caps_at_the_dataset():
    images, conds = toy_data(n=8)
    assert EmpiricalResampler(images, conds, k=np.int64(3)).k == 3
    assert EmpiricalResampler(images, conds, k=50).k == 8


def reference_picks(conds, queries, k, seed):
    """Per-query full (distance, index) lexsort and one scalar draw per query."""
    lo = conds.min(axis=0)
    span = np.where(conds.max(axis=0) > lo, conds.max(axis=0) - lo, 1.0)
    norm = (conds - lo) / span
    rng = substream(seed, "resampler")
    picks = []
    for q in queries:
        d2 = np.sum((norm - (q - lo) / span) ** 2, axis=1)
        nb = np.lexsort((np.arange(len(d2)), d2))[:k]
        picks.append(nb[rng.integers(k)])
    return np.array(picks)


def test_resampler_picks_match_bruteforce_reference():
    # conditions on a coarse grid repeat exactly, so many queries have ties
    # at the k-th distance that only the index order can break
    rng = np.random.default_rng(18)
    conds = rng.integers(0, 6, size=(300, 2)).astype(float) * (25.0, 10.0)
    images = np.arange(300.0).reshape(300, 1, 1)  # image i holds its own index
    res = EmpiricalResampler(images, conds, k=7)
    n = BLOCK // 14 + 45  # more queries than one block of (queries, 2k) windows
    queries = np.concatenate([conds[rng.integers(0, 300, n - 20)],
                              rng.uniform(0, 130, (20, 2))])
    got = res.sample(queries, len(queries), seed=5)[:, 0, 0].astype(int)
    np.testing.assert_array_equal(got, reference_picks(conds, queries, 7, seed=5))

    # a single pair is that pair for every pick, to the byte
    got = res.sample(conds[3], 50, seed=6)
    assert got.tobytes() == res.sample(np.broadcast_to(conds[3], (50, 2)), 50, seed=6).tobytes()
    np.testing.assert_array_equal(got[:, 0, 0].astype(int),
                                  reference_picks(conds, [conds[3]] * 50, 7, seed=6))

    # one vector draw yields the same values as that many scalar draws
    a, b = substream(9, "resampler"), substream(9, "resampler")
    np.testing.assert_array_equal(a.integers(7, size=500), [b.integers(7) for _ in range(500)])


@st.composite
def resampler_cases(draw):
    """(conditions, queries, k, block) with ties, lone heights, small height buckets and far queries."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # distances 25 m apart spanning 0-200 m normalize exactly, so the
        # midpoints between them tie with both sides
        x = [25.0 * v for v in draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))]
        if n > 1:
            x[0], x[-1] = 0.0, 200.0
    else:  # distances whose d2 round
        x = np.random.default_rng(draw(st.integers(0, 2**32))).uniform(0.0, 500.0, n).tolist()
    if draw(st.booleans()):  # every link at its own height
        h = draw(st.permutations(range(n)))
    else:  # a few heights, duplicated conditions, buckets smaller than k
        h = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=n, max_size=n))
    conds = np.column_stack([x, np.multiply(h, 1.5)])
    query = st.one_of(
        st.sampled_from(conds.tolist()),
        st.tuples(st.integers(-2, 18).map(lambda v: 12.5 * v), st.sampled_from(conds[:, 1].tolist())),
        st.tuples(st.floats(-500.0, 700.0), st.floats(-20.0, 30.0)))  # mostly outside
    queries = np.array(draw(st.lists(query, max_size=12)), dtype=float).reshape(-1, 2)
    return conds, queries, draw(st.integers(1, n + 2)), draw(st.sampled_from([1, 5, 64, BLOCK]))


# stored distances 50, 0, 200 m at one height: a query at 25 m is 0.125 from
# both the first and second, and their tie at k = 1 goes to the lower index
@example(case=(np.array([[50.0, 0.0], [0.0, 0.0], [200.0, 0.0]]), np.array([[25.0, 0.0]]), 1,
               BLOCK), seed=0)
@example(case=(np.column_stack([np.arange(6.0) * 25, np.arange(6.0)]),
               np.array([[60.0, 2.5], [0.0, 9.0], [130.0, -4.0]]), 6, 5), seed=1)  # k = N
@example(case=(np.array([[0.0, 0.0]] * 10 + [[100.0, 5.0], [200.0, 5.0]]),
               np.array([[100.0, 5.0], [150.0, 5.0]]), 4, BLOCK), seed=2)  # bucket smaller than k
@example(case=(np.array([[0.0, 0.0], [25.0, 1.0]]), np.zeros((0, 2)), 1, BLOCK), seed=3)
# far above the one stored height, dy**2 swamps dx**2 and d2 rounds: only the
# widened distance range holds the 4th neighbour
@example(case=(np.column_stack([[0.39501292999758697, 0.7900153179807999, 0.4649923001754772,
                                 0.7308090491481728, 0.5661038765794069, 0.9782481140195477],
                                np.full(6, 2.0)]),
               np.array([[0.4552299873233121, 7.839721305580946]]), 4, BLOCK), seed=4)
# 1e-300 m from two stored conditions, whose d2 underflows to 0
@example(case=(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.array([[1e-300, 0.0]]), 2,
               BLOCK), seed=5)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=resampler_cases(), seed=st.integers(0, 2**32))
def test_resampler_picks_match_the_reference_on_any_conditions(case, seed):
    conds, queries, k, block = case
    images = np.arange(len(conds), dtype=float).reshape(-1, 1, 1)  # image i holds its own index
    with mock.patch.object(resampler, "BLOCK", block):
        got = EmpiricalResampler(images, conds, k=k).sample(queries, len(queries), seed=seed)
    np.testing.assert_array_equal(got[:, 0, 0].astype(int),
                                  reference_picks(conds, queries, min(k, len(conds)), seed))


def scan_neighbours(conds, queries, k):
    """(n, k) neighbour lists by the O(N**2) scan: per 32-query block, every d2, a partition and a lexsort."""
    lo = conds.min(axis=0)
    span = np.where(conds.max(axis=0) > lo, conds.max(axis=0) - lo, 1.0)
    norm = (conds - lo) / span
    nx, ny = np.ascontiguousarray(norm[:, 0]), np.ascontiguousarray(norm[:, 1])
    q = (queries - lo) / span
    blocks = []
    for start in range(0, len(q), 32):
        c = min(32, len(q) - start)
        dd = np.square(nx - q[start:start + c, 0:1]) + np.square(ny - q[start:start + c, 1:2])
        kth = np.partition(dd, k - 1, axis=1)[:, k - 1:k]
        flat = np.flatnonzero(dd <= kth)  # grouped by row, by index within one
        rows, cols = np.divmod(flat, dd.shape[1])
        order = np.lexsort((dd.ravel()[flat], rows))  # stable: ties keep index order
        first = np.searchsorted(rows, np.arange(c))
        blocks.append(cols[order[first[:, None] + np.arange(k)]])
    return np.concatenate(blocks)


def test_resampler_matches_the_scan_at_20000_conditions():
    # 5,000 surrogate-like conditions at five heights, each stored 4 times,
    # queried at 10,000 stored conditions (ties at d2 = 0) and 10,000 fresh ones
    rng = np.random.default_rng(19)
    heights = [1.6, 30.0, 60.0, 90.0, 120.0]
    distinct = np.column_stack([rng.uniform(10, 500, 5000), rng.choice(heights, 5000)])
    conds = np.repeat(distinct, 4, axis=0)[rng.permutation(20000)]
    queries = np.concatenate([conds[rng.integers(0, 20000, 10000)],
                              np.column_stack([rng.uniform(0, 520, 10000),
                                               rng.choice(heights, 10000)])])
    images = np.arange(20000.0).reshape(-1, 1, 1)
    res = EmpiricalResampler(images, conds)
    nb = scan_neighbours(conds, queries, res.k)
    for seed in range(3):
        draws = substream(seed, "resampler").integers(res.k, size=len(queries))
        got = res.sample(queries, len(queries), seed=seed)[:, 0, 0].astype(int)
        np.testing.assert_array_equal(got, nb[np.arange(len(queries)), draws])


# -- sampling into a caller's array, in fixed-size blocks ------------------------


def block_backends():
    """(name, sampler(cond, n, seed, out=None)) of both backends on 8x25 matrices."""
    images, conds = toy_data(n=300, shape=(8, 25))
    res = EmpiricalResampler(images, conds, k=7)
    netp = build_networks(WganGpHyperparams(hidden=(16, 16), noise_dim=8),
                          conds.min(axis=0), conds.max(axis=0), substream(3, "init"))
    return [("wgan", lambda *a, **kw: sample(netp, *a, **kw)), ("resampler", res.sample)]


# on either side of one and of several 256-sample blocks
@pytest.mark.parametrize("n", [1, 31, 32, 33, 255, 256, 257, 1025])
def test_sample_into_float32_is_the_cast_result(n):
    cond = np.column_stack([np.linspace(10.0, 500.0, n), np.resize([1.6, 30.0], n)])
    for name, draw in block_backends():
        for c in (cond, cond[n // 2]):  # a condition per sample, and one for all
            want = draw(c, n, 5)
            assert want.dtype == np.float64, name
            out = np.full((n, 8, 25), np.nan, dtype=np.float32)
            assert draw(c, n, 5, out=out) is out
            assert out.tobytes() == want.astype(np.float32).tobytes(), name
        with pytest.raises(DataError, match="sample fills an array of shape"):
            draw(cond, n, 5, out=np.empty((n + 1, 8, 25), dtype=np.float32))


@pytest.mark.parametrize("backend", [0, 1], ids=["wgan", "resampler"])
def test_sample_requests_are_checked(backend):
    name, draw = block_backends()[backend]
    conds = np.tile([[100.0, 1.6]], (3, 1))
    for bad in ([np.nan, 1.6], [100.0, np.inf], [[100.0, 1.6], [-np.inf, 1.6], [1.0, 1.6]]):
        with pytest.raises(DataError, match="cond holds a value that is not finite"):
            draw(bad, 3, 5)
    bad = conds.copy()
    bad[2, 1] = np.nan  # past the first sample too
    with pytest.raises(DataError, match="cond holds a value that is not finite"):
        draw(bad, 3, 5)
    for n in (-1, 2.0, 3.0, True, "3", None):
        message = f"n must be a non-negative integer, got {n!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            draw(conds[:1], n, 5)
    assert draw(conds, np.int64(3), 5).tobytes() == draw(conds, 3, 5).tobytes(), name
    assert draw(conds[:0], 0, 5).shape == (0, 8, 25), name


def test_samples_do_not_depend_on_the_block_size(monkeypatch):
    cond = np.column_stack([np.linspace(10.0, 500.0, 700), np.resize([1.6, 30.0], 700)])
    want = [draw(cond, 700, 5).tobytes() for _, draw in block_backends()]
    monkeypatch.setattr(wgan, "SAMPLE_CHUNK", 1024)
    # 4 queries of 2k = 14 window columns per block, split where their
    # candidates exceed 64
    monkeypatch.setattr(resampler, "BLOCK", 64)
    assert [draw(cond, 700, 5).tobytes() for _, draw in block_backends()] == want


def traced_peak(fn):
    """Bytes fn allocates above what was held when it started, at the most (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sampling_5000_conditions_holds_no_full_size_copy():
    # measured: 5.8 MB for the default WGAN-GP (one 256-row forward and its
    # noise) and 1.9 MB for the resampler (one block's 2**15-element window
    # and candidate arrays; 2.8 MB while it scanned two (32, 5000) float64
    # distance blocks); a float64 result alone is 8 MB, and sampling whole
    # arrays took 28.8 and 23.4 MB
    n = 5000
    images, conds = toy_data(n=n, shape=(8, 25))
    out = np.empty((n, 8, 25), dtype=np.float32)
    netp = build_networks(WganGpHyperparams(), conds.min(axis=0), conds.max(axis=0),
                          substream(3, "init"))
    assert traced_peak(lambda: sample(netp, conds, n, 4, out=out)) < 8 * 2**20
    res = EmpiricalResampler(images, conds)
    assert traced_peak(lambda: res.sample(conds, n, 4, out=out)) < 4 * 2**20
