"""Generative backends: optimizer, losses, training loop, resampler."""

import math

import numpy as np
import pytest

from chanimg.errors import DataError, TrainingDivergedError
from chanimg.genmodel import (
    AdamState,
    ArrayBatches,
    EmpiricalResampler,
    Mlp,
    WganGpHyperparams,
    adam_step,
    critic_loss,
    sample,
    train_wgan_gp,
)
from chanimg.genmodel.resampler import QUERY_CHUNK
from chanimg.genmodel.wgan import (
    NetworkParams,
    build_networks,
    critic_loss_and_grads,
    generator_loss,
    generator_loss_and_grads,
)
from chanimg.rng import substream

TINY = dict(image_shape=(2, 2), hidden=(6, 5), embed_hidden=4, embed_dim=3, noise_dim=4)


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
    lr, b1, b2, eps = 1e-2, 0.5, 0.9, 1e-8
    params = [np.array([1.0])]
    adam_step(params, [np.array([g])], AdamState.zeros(params), lr, b1, b2, eps)
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
    params = [np.array([1.0])]
    with pytest.raises(TrainingDivergedError):
        adam_step(params, [np.array([np.nan])], AdamState.zeros(params), 1e-3, 0.5, 0.9)


def test_adam_zero_gradient_decays_moments():
    params = [np.array([0.0])]
    state = AdamState.zeros(params)
    adam_step(params, [np.array([1.0])], state, 0.0, 0.5, 0.9)
    m1 = state.m[0][0]
    adam_step(params, [np.array([0.0])], state, 0.0, 0.5, 0.9)
    assert state.m[0][0] == 0.5 * m1


# -- critic loss special cases ------------------------------------------------------


def test_zero_critic_loss_is_lambda():
    netp, _ = tiny_netp()
    for p in netp.critic.params:
        p[:] = 0.0
    rng = np.random.default_rng(0)
    real = rng.uniform(-1, 1, (8, 4))
    fake = rng.uniform(-1, 1, (8, 4))
    cond = rng.uniform(-1, 1, (8, 2))
    u = rng.uniform(size=(8, 1))
    for lam in (1.0, 10.0):
        parts = critic_loss(netp, real, fake, cond, u, lam)
        assert parts["total"] == pytest.approx(lam, rel=1e-12)
        assert parts["wasserstein"] == 0.0


def test_unit_linear_critic_has_zero_gp():
    netp, _ = tiny_netp()
    d = 4
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
    # 4-pixel images through the full conditional loss: analytic gradients
    # match central differences, including the second-order penalty path
    netp, _ = tiny_netp(seed=3)
    rng = np.random.default_rng(4)
    b = 3
    real = rng.uniform(-1, 1, (b, 4))
    fake = rng.uniform(-1, 1, (b, 4))
    cond = rng.uniform(-1, 1, (b, 2))
    u = rng.uniform(size=(b, 1))
    _, grads = critic_loss_and_grads(netp, real, fake, cond, u, 10.0)
    params = netp.critic_params()
    h = 1e-6
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
    _, grads = generator_loss_and_grads(netp, z, cond)
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


def toy_data(n=256, shape=(2, 2)):
    rng = np.random.default_rng(8)
    images = rng.uniform(-0.5, 0.5, (n, *shape))
    conds = np.column_stack([rng.uniform(10, 500, n), rng.choice([1.6, 30.0], n)])
    return images, conds


def test_training_deterministic():
    images, conds = toy_data()
    hyper = WganGpHyperparams(**TINY, epochs=2, batch_size=64)

    netp1, log1 = train_wgan_gp((images, conds), hyper, seed=9)
    netp2, log2 = train_wgan_gp((images, conds), hyper, seed=9)
    assert log1.critic_losses == log2.critic_losses
    assert log1.gen_losses[4] == log2.gen_losses[4]
    for a, b in zip(netp1.generator_params(), netp2.generator_params()):
        np.testing.assert_array_equal(a, b)
    netp3, log3 = train_wgan_gp((images, conds), hyper, seed=10)
    assert log1.critic_losses != log3.critic_losses


def test_training_log_contents():
    images, conds = toy_data()
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64, critic_steps_per_gen_step=2)
    netp, log = train_wgan_gp((images, conds), hyper, seed=11)
    assert log.steps == [1, 2, 3, 4]  # 256/64 batches, last batch kept (exact split)
    assert all(np.isfinite(log.critic_losses))
    assert math.isnan(log.gen_losses[0]) and math.isfinite(log.gen_losses[1])
    assert log.param_counts["generator"] > 0 and log.param_counts["critic"] > 0


def test_training_drops_last_partial_batch():
    images, conds = toy_data(n=100)
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64)
    _, log = train_wgan_gp((images, conds), hyper, seed=12)
    assert log.steps == [1]  # 100 -> one full batch of 64, remainder dropped


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_batches_rejects_nonfinite(bad):
    images, conds = toy_data(n=8)
    images[3, 1, 0] = bad
    with pytest.raises(DataError, match="non-finite"):
        ArrayBatches(images, conds, 4)
    images, conds = toy_data(n=8)
    conds[5, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        ArrayBatches(images, conds, 4)


def test_training_rejects_small_dataset():
    images, conds = toy_data(n=16)
    hyper = WganGpHyperparams(**TINY, epochs=1, batch_size=64)
    with pytest.raises(DataError):
        train_wgan_gp((images, conds), hyper, seed=0)


def test_collapse_to_constant_image():
    # identical images: with enough steps the generator mean lands on them
    rng = np.random.default_rng(13)
    target = rng.uniform(-0.6, 0.6, size=(2, 2))
    images = np.broadcast_to(target, (512, 2, 2)).copy()
    conds = np.tile([[100.0, 1.6]], (512, 1))
    hyper = WganGpHyperparams(image_shape=(2, 2), hidden=(32, 32), embed_hidden=8,
                              embed_dim=4, noise_dim=8, learning_rate=1e-3,
                              epochs=400, batch_size=64, gp_lambda=1.0)
    netp, _ = train_wgan_gp((images, conds), hyper, seed=14)
    out = sample(netp, [100.0, 1.6], 512, seed=15)
    assert np.abs(out.mean(axis=0) - target).max() < 0.05


# -- sampling ---------------------------------------------------------------------


def test_sample_shapes_and_range():
    netp, _ = tiny_netp()
    out = sample(netp, [100.0, 1.6], 7, seed=0)
    assert out.shape == (7, 2, 2)
    assert np.all(np.abs(out) <= 1.0)
    assert sample(netp, [100.0, 1.6], 0, seed=0).shape == (0, 2, 2)


def test_sample_per_index_stability():
    # sample i depends on (seed, i): prefixes of a larger draw are identical
    netp, _ = tiny_netp()
    a = sample(netp, [100.0, 1.6], 3, seed=1)
    b = sample(netp, [100.0, 1.6], 10, seed=1)
    np.testing.assert_array_equal(a, b[:3])


def test_sample_rejects_corrupt_params():
    netp, _ = tiny_netp()
    netp.generator.params[0][0, 0] = np.nan
    with pytest.raises(DataError):
        sample(netp, [100.0, 1.6], 1, seed=0)


def test_sample_condition_shapes():
    netp, _ = tiny_netp()
    conds = np.tile([[50.0, 1.6]], (4, 1))
    out = sample(netp, conds, 4, seed=2)
    assert out.shape == (4, 2, 2)
    with pytest.raises(DataError):
        sample(netp, conds, 3, seed=2)


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
    with pytest.raises(DataError):
        res.sample(conds[:3], 8, seed=0)


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
    n = QUERY_CHUNK + 45  # more queries than one chunk
    queries = np.concatenate([conds[rng.integers(0, 300, n - 20)],
                              rng.uniform(0, 130, (20, 2))])
    got = res.sample(queries, n, seed=5)[:, 0, 0].astype(int)
    np.testing.assert_array_equal(got, reference_picks(conds, queries, 7, seed=5))

    # the single-pair path draws every pick from one neighbour list
    got = res.sample(conds[3], 50, seed=6)[:, 0, 0].astype(int)
    np.testing.assert_array_equal(got, reference_picks(conds, [conds[3]] * 50, 7, seed=6))

    # one vector draw yields the same values as that many scalar draws
    a, b = substream(9, "resampler"), substream(9, "resampler")
    np.testing.assert_array_equal(a.integers(7, size=500), [b.integers(7) for _ in range(500)])
