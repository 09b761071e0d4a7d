"""Surrogate dataset generator: determinism, invariants, qualitative trends."""

import math
import re
from collections import namedtuple
from dataclasses import fields

import numpy as np
import pytest

from chanimg.core import (
    MAX_PATHS,
    OUTAGE_THRESHOLD_DB,
    PATH_FIELDS,
    SPEED_OF_LIGHT,
    LinkState,
    closed_forms,
    link_rules,
    wrap_azimuth,
)
from chanimg import io, surrogate
from chanimg.errors import DataError, GeometryError
from chanimg.rng import substream
from chanimg.surrogate import SurrogateConfig, generate_dataset, train_test_split
from tables import link, link_table

Path = namedtuple("Path", PATH_FIELDS)


def small_config(**kw):
    base = dict(num_tx=5, num_rx_per_height=20, seed=42)
    base.update(kw)
    return SurrogateConfig(**base)


# -- the per-link reference generator ---------------------------------------------
# One link at a time, built path by path from its share of the "link" stream's
# draws, drawn one number at a time in the order generate_dataset documents:
# generate_dataset must give the table of these links bit for bit.  The
# distributions are the surrogate module's constants, read when a reference
# is made.  The exponentials are numpy's, as in the generator, since libm's
# exp may round differently.


def reference_los_probability(cfg, dist2d, height):
    if cfg.los_probability is not None:
        return cfg.los_probability
    scale = surrogate.LOS_SCALE_BASE_M + surrogate.LOS_SCALE_PER_HEIGHT * height
    return min(1.0, float(np.exp(-dist2d / scale)))


def reference_draws(cfg, dist2d, height):
    """(LOS or not, scattered-path count) of every link, and the 7 draws of every path."""
    rng = substream(cfg.seed, "link")
    is_los = [rng.uniform() < reference_los_probability(cfg, d2, h)
              for d2, h in zip(dist2d, height)]
    n_paths = []
    for los, d2 in zip(is_los, dist2d):
        n_extra = rng.poisson(surrogate.PATH_RATE_BASE
                              * float(np.exp(-d2 / surrogate.PATH_RATE_DECAY_M)))
        n_paths.append(min(n_extra, MAX_PATHS - 1) if los else min(1 + n_extra, MAX_PATHS))
    # the spread decay of each path's link
    decay = [float(np.exp(-d2 / surrogate.SPREAD_DECAY_M)) for d2, n in zip(dist2d, n_paths)
             for _ in range(n)]
    total = len(decay)
    delays = [rng.exponential(surrogate.EXCESS_DELAY_MEAN_S) for _ in range(total)]
    normals = [rng.normal(0.0, surrogate.EXCESS_PL_SIGMA_DB) for _ in range(total)]
    az, zen = surrogate.AZIMUTH_SPREAD_DEG, surrogate.ZENITH_SPREAD_DEG
    l_aod, l_aoa, l_zod, l_zoa = ([rng.laplace(0.0, spread * d) for d in decay]
                                  for spread in (az, az, zen, zen))
    phases = [rng.uniform(0.0, 360.0) for _ in range(total)]
    return is_los, n_paths, list(zip(delays, normals, l_aod, l_aoa, l_zod, l_zoa, phases))


def reference_link(cfg, tx, rx, los, is_los, draws):
    """A link from its LOS path and the draws of its scattered paths."""
    paths = []
    for excess_delay, normal, l_aod, l_aoa, l_zod, l_zoa, phase in draws:
        excess_pl = abs(normal) + surrogate.EXCESS_PL_PER_NS_DB * excess_delay * 1e9
        paths.append(Path(los.pathloss + excess_pl, los.delay + excess_delay,
                          wrap_azimuth(los.aod + l_aod), min(max(los.zod + l_zod, 0.0), 180.0),
                          wrap_azimuth(los.aoa + l_aoa), min(max(los.zoa + l_zoa, 0.0), 180.0),
                          -phase))  # (-360, 0]
    paths.sort(key=lambda p: p.delay)  # stable: equal delays keep their draw order
    if is_los:
        paths.insert(0, los)
    if min(p.pathloss for p in paths) > OUTAGE_THRESHOLD_DB:
        state = LinkState.OUTAGE
    else:
        state = LinkState.LOS if is_los else LinkState.NLOS
    return link(tx, rx, cfg.carrier_freq, state, paths)


def reference_dataset(cfg):
    """The links of the tx x rx x height grid, one at a time."""
    rng_tx = substream(cfg.seed, "tx")
    tx_xy = rng_tx.uniform([0.0, 0.0], cfg.area, size=(cfg.num_tx, 2))
    tx_z = rng_tx.uniform(*surrogate.TX_HEIGHT_RANGE, size=cfg.num_tx)
    txs = np.column_stack([tx_xy, tx_z])
    rxs = np.concatenate([
        np.column_stack([substream(cfg.seed, "rx", h_idx).uniform(
            [0.0, 0.0], cfg.area, size=(cfg.num_rx_per_height, 2)),
            np.full(cfg.num_rx_per_height, float(height))])
        for h_idx, height in enumerate(cfg.heights)])
    tx_all, rx_all = np.tile(txs, (len(rxs), 1)), np.repeat(rxs, cfg.num_tx, axis=0)
    dist2d, _, _, los = closed_forms(tx_all, rx_all, np.full(len(rx_all), cfg.carrier_freq))
    is_los, n_paths, draws = reference_draws(cfg, dist2d.tolist(), rx_all[:, 2].tolist())
    links, start = [], 0
    for a, b, row, los_link, n in zip(tx_all.tolist(), rx_all.tolist(), los.tolist(), is_los,
                                      n_paths):
        links.append(reference_link(cfg, tuple(a), tuple(b), Path(*row), los_link,
                                    draws[start:start + n]))
        start += n
    return links


@pytest.mark.parametrize("kw", [
    {},
    {"los_probability": 1.0},
    {"los_probability": 0.0},
    {"los_probability": 0.0, "carrier_freq": 5e13},  # 212 of 500 links are Outage
    {"PATH_RATE_BASE": 200.0},  # a module constant: the 25-path cap is hit
    {"seed": 9, "num_tx": 3, "heights": (1.6, 45.0)},
    {"seed": 2**32},  # seeds of more than one 32-bit word
    {"seed": 2**64 + 3},
])
def test_table_matches_per_link_reference(monkeypatch, kw):
    for name, value in kw.items():
        if name.isupper():
            monkeypatch.setattr(surrogate, name, value)
    cfg = small_config(**{k: v for k, v in kw.items() if not k.isupper()})
    got = generate_dataset(cfg)
    want = link_table(reference_dataset(cfg))
    for f in fields(want):  # paths, counts, states, endpoints and closed forms
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype != object and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name
    states = set(got.state.tolist())
    if "carrier_freq" in kw:
        assert LinkState.OUTAGE in states
    if "PATH_RATE_BASE" in kw:
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


def test_different_seed_differs():
    a = generate_dataset(small_config())
    b = generate_dataset(small_config(seed=43))
    assert ((a.ends[:, :3] != b.ends[:, :3]).any(axis=1) | (a.counts != b.counts)).any()


def test_forced_los():
    table = generate_dataset(small_config(los_probability=1.0))
    assert (table.state == LinkState.LOS).all()
    # first path bit-exact equal to the closed form of the link's table row
    assert table.paths[table.offsets[:-1]].tolist() == table.los.tolist()


def test_forced_nlos():
    table = generate_dataset(small_config(los_probability=0.0))
    assert np.isin(table.state, [LinkState.NLOS, LinkState.OUTAGE]).all()


def test_path_invariants():
    table = generate_dataset(small_config())
    assert ((table.counts >= 1) & (table.counts <= 25)).all()
    offsets = table.offsets
    assert len(table.paths) == offsets[-1]
    for i, (d3, base_pl) in enumerate(zip(table.dist3d, table.fspl)):
        paths = table.paths[offsets[i]:offsets[i + 1]]
        base_dly = d3 / SPEED_OF_LIGHT
        assert (paths[:, 1] >= base_dly).all()  # no negative excess delay
        assert (paths[:, 0] >= base_pl - 1e-9).all()  # no gain below free space
        assert ((paths[:, 6] > -360.0) & (paths[:, 6] <= 0.0)).all()
        assert paths[:, 1].tolist() == sorted(paths[:, 1].tolist())


def test_los_first_path_exact():
    table = generate_dataset(small_config())
    los = np.flatnonzero(table.state == LinkState.LOS)
    assert los.size
    np.testing.assert_array_equal(table.paths[table.offsets[los]], table.los[los])


def test_phase_uniformity():
    table = generate_dataset(small_config(num_rx_per_height=100))
    phases = table.paths[:, 6]
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
    with pytest.raises(GeometryError, match=r"^link 0: no LOS path: pathloss must be positive$"):
        generate_dataset(small_config(carrier_freq=freq))


@pytest.mark.parametrize("kw", [{"area": (1e308, 1e308)}, {"heights": (1e308,)}])
def test_overflowing_carrier_rotation_is_named(kw):
    # the LOS pathloss is positive (over 6,000 dB), but frequency x delay
    # overflows to inf cycles and the phase is NaN
    assert closed_forms([[0.0, 0.0, 20.0]], [[1e308, 1e308, 1.6]], [12e9])[2] > 0
    with pytest.raises(GeometryError, match=re.escape("link 0: no LOS path: phase out of")):
        generate_dataset(small_config(**kw))


@pytest.mark.parametrize("kw", [
    {"los_probability": 1.0},
    {"los_probability": 0.0, "carrier_freq": 5e13},
    {"carrier_freq": 1e300},  # every link an Outage
    {"area": (1e-9, 1e-9)},  # every link LOS, most at the 25-path cap
    {"area": (3e306, 3e306)},  # about the largest area whose carrier rotation is finite
    {"heights": (1e-300, 1e300)},
    {"num_tx": 1, "num_rx_per_height": 1},
])
def test_tables_at_extreme_settings_are_valid_files(tmp_path, kw):
    # each scattered path is its LOS path plus finite draws: what the
    # generator makes, read_table reads back, from the sidecar and from the text
    table = generate_dataset(small_config(**kw))
    assert not any(bad.any() for _, bad in link_rules(table.paths, table.counts, table.state,
                                                       table.ends))
    path = tmp_path / "data.jsonl"
    io.write_table(path, table)
    for read in range(2):
        if read:
            (tmp_path / "data.jsonl.ltab").unlink()
        back = io.read_table(path)
        for f in fields(table):
            assert getattr(back, f.name).tobytes() == getattr(table, f.name).tobytes(), f.name


def test_zero_links_rejected():
    with pytest.raises(DataError):
        generate_dataset(small_config(num_tx=0))


def test_bad_config_rejected():
    for kw, message in [
        ({"heights": ()}, "heights must be non-empty"),
        ({"area": (0.0, 100.0)}, "area dimensions must be positive"),
        ({"num_tx": -2, "num_rx_per_height": -3}, "num_tx must be a positive integer, got -2"),
        ({"num_rx_per_height": -3}, "num_rx_per_height must be a positive integer, got -3"),
        ({"num_tx": 2.5}, "num_tx must be a positive integer, got 2.5"),
        ({"num_tx": True}, "num_tx must be a positive integer, got True"),
        ({"carrier_freq": math.inf}, "carrier_freq must be positive and finite"),
        ({"los_probability": math.nan}, "los_probability must lie in [0, 1]"),
        ({"los_probability": 1.5}, "los_probability must lie in [0, 1]"),
    ]:
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            generate_dataset(small_config(**kw))


def test_train_test_split():
    table = generate_dataset(small_config())
    train, test = train_test_split(table, 0.2, seed=5)
    assert len(train) + len(test) == len(table)
    assert len(test) == round(0.2 * len(table))
    # each part keeps the table's link order, and together they hold every link once
    index = {ends: i for i, ends in enumerate(map(tuple, table.ends.tolist()))}
    train_idx, test_idx = ([index[ends] for ends in map(tuple, part.ends.tolist())]
                           for part in (train, test))
    assert train_idx == sorted(train_idx) and test_idx == sorted(test_idx)
    assert sorted(train_idx + test_idx) == list(range(len(table)))
    train2, test2 = train_test_split(table, 0.2, seed=5)
    for f in fields(train):
        np.testing.assert_array_equal(getattr(train, f.name), getattr(train2, f.name))
        np.testing.assert_array_equal(getattr(test, f.name), getattr(test2, f.name))
    with pytest.raises(DataError):
        train_test_split(table, 1.5, seed=0)
