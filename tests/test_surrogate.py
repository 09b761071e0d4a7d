"""Surrogate dataset generator: determinism, invariants, qualitative trends."""

import math
from dataclasses import fields

import numpy as np
import pytest

from chanimg.core import (
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    LinkTable,
    PathParams,
    closed_forms,
    wrap_azimuth,
)
from chanimg.errors import DataError, GeometryError
from chanimg.rng import substream
from chanimg.surrogate import SurrogateConfig, generate_dataset, train_test_split


def small_config(**kw):
    base = dict(num_tx=5, num_rx_per_height=20, seed=42)
    base.update(kw)
    return SurrogateConfig(**base)


# -- the per-link reference generator ---------------------------------------------
# One LinkRecord per link, built path by path from the link's own substream:
# generate_dataset must give the table of these links bit for bit.


def reference_los_probability(cfg, dist2d, height):
    if cfg.los_probability is not None:
        return cfg.los_probability
    scale = cfg.los_scale_base_m + cfg.los_scale_per_height * height
    return min(1.0, math.exp(-dist2d / scale))


def reference_scattered_paths(cfg, rng, n, dist2d, los):
    """Draw n scattered paths around the link's LOS direction, delay and loss."""
    decay = math.exp(-dist2d / cfg.spread_decay_m)
    az_scale = cfg.azimuth_spread_deg * decay
    zen_scale = cfg.zenith_spread_deg * decay

    excess_delay = rng.exponential(cfg.excess_delay_mean_s, size=n)
    excess_pl = np.abs(rng.normal(0.0, cfg.excess_pl_sigma_db, size=n))
    excess_pl += cfg.excess_pl_per_ns_db * excess_delay * 1e9

    aod = wrap_azimuth(los.aod + rng.laplace(0.0, az_scale, size=n))
    aoa = wrap_azimuth(los.aoa + rng.laplace(0.0, az_scale, size=n))
    zod = np.clip(los.zod + rng.laplace(0.0, zen_scale, size=n), 0.0, 180.0)
    zoa = np.clip(los.zoa + rng.laplace(0.0, zen_scale, size=n), 0.0, 180.0)
    phase = -rng.uniform(0.0, 360.0, size=n)  # (-360, 0]

    order = np.argsort(excess_delay, kind="stable")
    return [PathParams(float(los.pathloss + excess_pl[i]), float(los.delay + excess_delay[i]),
                       float(aod[i]), float(zod[i]), float(aoa[i]), float(zoa[i]),
                       float(phase[i]))
            for i in order]


def reference_link(cfg, tx, rx, link_index, dist2d, los):
    rng = substream(cfg.seed, "link", link_index)
    is_los = rng.uniform() < reference_los_probability(cfg, dist2d, rx[2])
    n_extra = int(rng.poisson(cfg.path_rate_base * math.exp(-dist2d / cfg.path_rate_decay_m)))
    if is_los:
        n_extra = min(n_extra, cfg.max_paths - 1)
        paths = [los] + reference_scattered_paths(cfg, rng, n_extra, dist2d, los)
    else:
        n_total = min(1 + n_extra, cfg.max_paths)
        paths = reference_scattered_paths(cfg, rng, n_total, dist2d, los)
    if min(p.pathloss for p in paths) > cfg.outage_threshold_db:
        state = LinkState.OUTAGE
    else:
        state = LinkState.LOS if is_los else LinkState.NLOS
    return LinkRecord(tx=tx, rx=rx, carrier_freq=cfg.carrier_freq, link_state=state, paths=paths)


def reference_dataset(cfg):
    """The links of the tx x rx x height grid, one LinkRecord at a time."""
    rng_tx = substream(cfg.seed, "tx")
    tx_xy = rng_tx.uniform([0.0, 0.0], cfg.area, size=(cfg.num_tx, 2))
    tx_z = rng_tx.uniform(*cfg.tx_height_range, size=cfg.num_tx)
    txs = np.column_stack([tx_xy, tx_z])
    rxs = np.concatenate([
        np.column_stack([substream(cfg.seed, "rx", h_idx).uniform(
            [0.0, 0.0], cfg.area, size=(cfg.num_rx_per_height, 2)),
            np.full(cfg.num_rx_per_height, float(height))])
        for h_idx, height in enumerate(cfg.heights)])
    tx_all, rx_all = np.tile(txs, (len(rxs), 1)), np.repeat(rxs, cfg.num_tx, axis=0)
    dist2d, _, _, los = closed_forms(tx_all, rx_all, np.full(len(rx_all), cfg.carrier_freq))
    return [reference_link(cfg, tuple(a), tuple(b), i, d2, PathParams(*row))
            for i, (a, b, d2, row) in enumerate(zip(
                tx_all.tolist(), rx_all.tolist(), dist2d.tolist(), los.tolist()))]


@pytest.mark.parametrize("kw", [
    {},
    {"los_probability": 1.0},
    {"los_probability": 0.0},
    {"outage_threshold_db": 110.0},  # Outage links appear
    {"path_rate_base": 200.0},  # the 25-path cap is hit
    {"seed": 9, "num_tx": 3, "heights": (1.6, 45.0)},
])
def test_table_matches_per_link_reference(kw):
    cfg = small_config(**kw)
    got = generate_dataset(cfg)
    want = LinkTable.from_links(reference_dataset(cfg))
    for f in fields(want):  # paths, counts, states, endpoints and closed forms
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name
    states = set(got.state)
    if "outage_threshold_db" in kw:
        assert LinkState.OUTAGE in states
    if "path_rate_base" in kw:
        assert got.counts.max() == 25
    if kw.get("los_probability") == 0.0:
        assert LinkState.LOS not in states


# -- the table's own properties -----------------------------------------------------


def test_same_seed_same_dataset():
    a = generate_dataset(small_config())
    b = generate_dataset(small_config())
    assert len(a) == len(b) == 500
    for f in fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)
    assert all(sa is sb for sa, sb in zip(a.state, b.state))


def test_different_seed_differs():
    a = generate_dataset(small_config())
    b = generate_dataset(small_config(seed=43))
    assert ((a.tx != b.tx).any(axis=1) | (a.counts != b.counts)).any()


def test_forced_los():
    table = generate_dataset(small_config(los_probability=1.0))
    assert all(s is LinkState.LOS for s in table.state)
    # first path bit-exact equal to the closed form of the link's table row
    assert table.paths[:, 0].tolist() == table.los.tolist()


def test_forced_nlos():
    table = generate_dataset(small_config(los_probability=0.0))
    assert all(s in (LinkState.NLOS, LinkState.OUTAGE) for s in table.state)


def test_path_invariants():
    table = generate_dataset(small_config())
    assert ((table.counts >= 1) & (table.counts <= 25)).all()
    for i, (d3, base_pl) in enumerate(zip(table.dist3d, table.fspl)):
        paths = table.paths[i, :table.counts[i]]
        base_dly = d3 / SPEED_OF_LIGHT
        assert (paths[:, 1] >= base_dly).all()  # no negative excess delay
        assert (paths[:, 0] >= base_pl - 1e-9).all()  # no gain below free space
        assert ((paths[:, 6] > -360.0) & (paths[:, 6] <= 0.0)).all()
        assert paths[:, 1].tolist() == sorted(paths[:, 1].tolist())
    assert not table.paths[~table.valid].any()  # zero beyond each link's paths


def test_los_first_path_exact():
    table = generate_dataset(small_config())
    los = np.flatnonzero(table.state == LinkState.LOS)
    assert los.size
    np.testing.assert_array_equal(table.paths[los, 0], table.los[los])


def test_phase_uniformity():
    table = generate_dataset(small_config(num_rx_per_height=100))
    phases = table.paths[table.valid][:, 6]
    hist, _ = np.histogram(phases, bins=8, range=(-360.0, 0.0))
    assert hist.min() > 0.7 * hist.mean()


def test_los_fraction_increases_with_height():
    table = generate_dataset(small_config(num_rx_per_height=200))
    frac = {}
    for h in (1.6, 120.0):
        sel = table.height == h
        assert sel.sum() >= 1000
        frac[h] = np.mean(table.state[sel] == LinkState.LOS)
    assert frac[120.0] > frac[1.6]


@pytest.mark.parametrize("freq", [1e3, 1.0])
def test_low_carrier_without_a_los_path_is_rejected(freq):
    # free-space loss at 1 kHz is below 0 dB over the whole 500 m area
    with pytest.raises(GeometryError, match=r"^link 0: LOS pathloss -\d.* dB is not positive"):
        generate_dataset(small_config(carrier_freq=freq))


@pytest.mark.parametrize("knob", ["excess_pl_sigma_db", "excess_delay_mean_s"])
def test_non_finite_scattered_path_rejected(knob):
    # the rules read_table applies, so the generator never writes a file it rejects
    with pytest.raises(DataError, match="^link 0: pathloss, delay, aod and aoa must be finite"):
        generate_dataset(small_config(**{knob: math.inf}))


def test_zero_links_rejected():
    with pytest.raises(DataError):
        generate_dataset(small_config(num_tx=0))


def test_bad_config_rejected():
    with pytest.raises(DataError):
        generate_dataset(small_config(heights=()))
    with pytest.raises(DataError):
        generate_dataset(small_config(max_paths=10))
    with pytest.raises(DataError):
        generate_dataset(small_config(area=(0.0, 100.0)))


def test_train_test_split():
    table = generate_dataset(small_config())
    train, test = train_test_split(table, 0.2, seed=5)
    assert len(train) + len(test) == len(table)
    assert len(test) == round(0.2 * len(table))
    # each part keeps the table's link order, and together they hold every link once
    index = {ends: i for i, ends in enumerate(map(tuple, np.hstack([table.tx, table.rx])))}
    train_idx, test_idx = ([index[ends] for ends in map(tuple, np.hstack([part.tx, part.rx]))]
                           for part in (train, test))
    assert train_idx == sorted(train_idx) and test_idx == sorted(test_idx)
    assert sorted(train_idx + test_idx) == list(range(len(table)))
    train2, test2 = train_test_split(table, 0.2, seed=5)
    for f in fields(train):
        np.testing.assert_array_equal(getattr(train, f.name), getattr(train2, f.name))
        np.testing.assert_array_equal(getattr(test, f.name), getattr(test2, f.name))
    with pytest.raises(DataError):
        train_test_split(table, 1.5, seed=0)
