"""Image codec: padding, re-referencing, scaling, tiling, decode."""

import numpy as np
import pytest

from chanimg.codec import (
    AOA,
    AOD,
    DECODE_CHUNK,
    DLY,
    LS,
    PL,
    PS,
    ZOA,
    ZOD,
    ChannelImageCodec,
    ChannelMatrix,
    DatasetEncoder,
    FeatureScaler,
    fit_codec,
    fit_scaler,
    normalize_link_features,
    pad_virtual_paths,
    raw_feature_ranges,
    tile,
    tile_array,
    untile,
    untile_array,
)
from chanimg.core import (
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    PathParams,
    fspl,
    geometry,
    los_params,
    wrap_azimuth,
    wrap_phase,
)
from chanimg.errors import DataError, FormatError
from chanimg.rng import substream
from chanimg.surrogate import SurrogateConfig, generate_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SurrogateConfig(num_tx=5, num_rx_per_height=20, seed=11))


@pytest.fixture(scope="module")
def codec(dataset):
    return fit_codec(dataset, substream(11, "padding"))


def make_link(n_paths, state=LinkState.NLOS, freq=12e9):
    tx, rx = (0.0, 0.0, 30.0), (100.0, 50.0, 1.6)
    _, d3 = geometry(tx, rx)
    base_pl = fspl(d3, freq)
    base_dly = d3 / SPEED_OF_LIGHT
    paths = [
        PathParams(base_pl + 1.0 + 2.0 * i, base_dly + 1e-8 * (i + 1),
                   -120.0 + 10.0 * i, 80.0 + i, 60.0 - 10.0 * i, 100.0 - i,
                   -10.0 * (i + 1))
        for i in range(n_paths)
    ]
    return LinkRecord(tx, rx, freq, state, paths)


# -- padding -------------------------------------------------------------------


def test_pad_full_link_adds_no_virtual_columns(dataset):
    ranges = raw_feature_ranges(dataset)
    link = make_link(25)
    m = pad_virtual_paths(link, ranges, substream(0, "x"))
    assert np.all(m.values[PL, :] > 0)
    np.testing.assert_array_equal(
        m.values[:LS, :], np.stack([p.as_array() for p in link.paths], axis=1))


def test_pad_13_paths_virtual_pathloss_above_threshold(dataset):
    ranges = raw_feature_ranges(dataset)
    m = pad_virtual_paths(make_link(13), ranges, substream(1, "x"))
    assert np.all(m.values[PL, 13:] > 180.0)
    assert np.all(m.values[PL, 13:] < 190.0)


def test_pad_virtual_values_inside_dataset_ranges(dataset):
    # brute-force scan of the dataset is the oracle for the ranges
    cols = np.concatenate(
        [np.stack([p.as_array() for p in lk.paths], axis=1) for lk in dataset], axis=1)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    ranges = raw_feature_ranges(dataset)
    np.testing.assert_array_equal(ranges[:LS, 0], lo)
    np.testing.assert_array_equal(ranges[:LS, 1], hi)

    rng = substream(2, "x")
    for n in (1, 7, 24):
        m = pad_virtual_paths(make_link(n), ranges, rng)
        for row in range(DLY, PS + 1):
            assert np.all(m.values[row, n:] >= lo[row])
            assert np.all(m.values[row, n:] <= hi[row])


def test_pad_link_state_row(dataset):
    ranges = raw_feature_ranges(dataset)
    rng = substream(3, "x")
    m_nlos = pad_virtual_paths(make_link(5), ranges, rng)
    assert np.all(m_nlos.values[LS] == m_nlos.values[LS, 0])
    assert -1.0 <= m_nlos.values[LS, 0] <= -0.99
    m_los = pad_virtual_paths(make_link(5, state=LinkState.LOS), ranges, rng)
    assert 0.99 <= m_los.values[LS, 0] <= 1.0


def test_pad_rejects_empty_and_oversized(dataset):
    ranges = raw_feature_ranges(dataset)
    empty = LinkRecord((0, 0, 1), (1, 0, 1), 12e9, LinkState.OUTAGE, [])
    with pytest.raises(DataError):
        pad_virtual_paths(empty, ranges, substream(4, "x"))


# -- normalization ---------------------------------------------------------------


def test_normalize_los_first_path_is_zero(dataset):
    ranges = raw_feature_ranges(dataset)
    from chanimg.core import los_params

    tx, rx, f = (0.0, 0.0, 25.0), (200.0, 10.0, 1.6), 12e9
    link = LinkRecord(tx, rx, f, LinkState.LOS, [los_params(tx, rx, f)])
    m = normalize_link_features(pad_virtual_paths(link, ranges, substream(5, "x")), link)
    assert m.values[PL, 0] == 0.0
    assert m.values[DLY, 0] == 0.0


def test_normalize_delay_scaling(dataset):
    ranges = raw_feature_ranges(dataset)
    link = make_link(1)
    _, d3 = geometry(link.tx, link.rx)
    link.paths[0].delay = d3 / SPEED_OF_LIGHT + 150e-9
    m = normalize_link_features(pad_virtual_paths(link, ranges, substream(6, "x")), link)
    assert m.values[DLY, 0] == pytest.approx(1.5, rel=1e-9)


# -- scaling ---------------------------------------------------------------------


def test_scaler_endpoints_exact():
    scaler = FeatureScaler(np.zeros(8), np.full(8, 10.0))
    vals = np.zeros((8, 25))
    vals[:, 0] = 0.0
    vals[:, 1] = 10.0
    vals[:, 2] = 5.0
    out = scaler.scale(ChannelMatrix(vals)).values
    assert np.all(out[:, 0] == -1.0)
    assert np.all(out[:, 1] == 1.0)
    np.testing.assert_allclose(out[:, 2], 0.0, atol=1e-15)


def test_scaler_fit_matches_bruteforce(dataset, codec):
    ranges = raw_feature_ranges(dataset)
    rng = substream(7, "x")
    mats = [normalize_link_features(pad_virtual_paths(lk, ranges, rng), lk)
            for lk in dataset]
    scaler = fit_scaler(mats)
    stack = np.stack([m.values for m in mats])
    np.testing.assert_array_equal(scaler.feature_min, stack.min(axis=(0, 2)))
    np.testing.assert_array_equal(scaler.feature_max, stack.max(axis=(0, 2)))


def test_scaler_single_matrix_fit():
    vals = np.arange(200, dtype=float).reshape(8, 25)
    scaler = fit_scaler([ChannelMatrix(vals)])
    np.testing.assert_array_equal(scaler.feature_min, vals.min(axis=1))
    np.testing.assert_array_equal(scaler.feature_max, vals.max(axis=1))


def test_scaler_roundtrip_property():
    rng = np.random.default_rng(8)
    scaler = FeatureScaler(-rng.uniform(1, 100, 8), rng.uniform(1, 100, 8))
    for _ in range(50):
        vals = rng.uniform(scaler.feature_min[:, None], scaler.feature_max[:, None],
                           size=(8, 25))
        m = ChannelMatrix(vals)
        back = scaler.unscale(scaler.scale(m))
        assert np.max(np.abs(back.values - vals)) < 1e-12
        assert np.all(np.abs(scaler.scale(m).values) <= 1.0)


def test_scaler_clamps_and_counts():
    scaler = FeatureScaler(np.zeros(8), np.ones(8))
    vals = np.full((8, 25), 0.5)
    vals[0, 0] = 2.0  # out of range
    out = scaler.scale(ChannelMatrix(vals)).values
    assert out[0, 0] == 1.0
    assert scaler.n_clipped == 1


def test_scaler_rejects_degenerate_feature():
    with pytest.raises(DataError, match="delay"):
        FeatureScaler(np.zeros(8), np.r_[1.0, 0.0, np.ones(6)])


def test_fit_scaler_empty():
    with pytest.raises(DataError):
        fit_scaler([])


# -- tiling ----------------------------------------------------------------------


def test_tile_replicates_blocks():
    vals = np.zeros((8, 25))
    vals[0, 0] = 0.5
    img = tile(ChannelMatrix(vals, scaled=True))
    assert img.shape == (64, 50)
    assert np.all(img[0:8, 0:2] == 0.5)
    assert np.all(img[8:, :] == 0.0)


def test_untile_tile_bit_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        vals = rng.uniform(-1, 1, size=(8, 25))
        m = ChannelMatrix(vals, scaled=True)
        back = untile(tile(m))
        assert np.array_equal(back.values, vals)


def test_untile_noise_attenuation():
    rng = np.random.default_rng(10)
    vals = rng.uniform(-0.9, 0.9, size=(8, 25))
    noisy = tile_array(vals) + rng.uniform(-0.01, 0.01, size=(64, 50))
    back = untile(noisy)
    assert np.max(np.abs(back.values - vals)) <= 0.01


def test_untile_rejects_bad_shape():
    with pytest.raises(DataError):
        untile(np.zeros((63, 50)))


# -- full encode/decode -----------------------------------------------------------


def decode_stack(codec, images, links):
    """Decode images[i] against the geometry of links[i]."""
    return codec.decode(images, [lk.tx for lk in links], [lk.rx for lk in links],
                        [lk.carrier_freq for lk in links])


def decode_one(codec, image, link):
    return decode_stack(codec, np.asarray(image)[None], [link])[0]


def test_roundtrip_surrogate_links(dataset, codec):
    rng = substream(12, "roundtrip")
    images = np.stack([codec.encode_link(lk, rng) for lk in dataset])
    worst = np.zeros(7)
    for lk, dec in zip(dataset, decode_stack(codec, images, dataset)):
        assert dec.link_state is lk.link_state
        assert dec.n_paths == lk.n_paths  # no virtual survivors, no real losses
        a = np.stack([p.as_array() for p in lk.paths])
        b = np.stack([p.as_array() for p in dec.paths])
        worst = np.maximum(worst, np.abs(a - b).max(axis=0))
    assert worst[PL] <= 1e-3
    assert worst[DLY] <= 1e-12
    assert np.all(worst[[AOD, ZOD, AOA, ZOA, PS]] <= 1e-3)


def test_roundtrip_los_first_path_exact(dataset, codec):
    rng = substream(13, "los")
    for lk in dataset:
        if lk.link_state is not LinkState.LOS:
            continue
        dec = decode_one(codec, codec.encode_link(lk, rng), lk)
        np.testing.assert_array_equal(dec.paths[0].as_array(), lk.paths[0].as_array())


def test_decode_negative_last_row_is_nlos(codec):
    link = make_link(10)
    img = codec.encode_link(link, substream(14, "x"))
    dec = decode_one(codec, img, link)
    assert dec.link_state is LinkState.NLOS


def test_decode_all_paths_above_threshold_is_outage(codec):
    # craft an image whose decoded pathloss is ~185 dB everywhere
    link = make_link(10)
    _, d3 = geometry(link.tx, link.rx)
    vals = np.zeros((8, 25))
    vals[PL] = 185.0 - fspl(d3, link.carrier_freq)
    vals[DLY] = 1.0
    vals[LS] = -0.995
    img = tile(codec.scaler.scale(ChannelMatrix(vals)))
    dec = decode_one(codec, img, link)
    assert dec.link_state is LinkState.OUTAGE
    assert dec.n_paths == 0


def test_decode_rejects_nonfinite(codec):
    img = np.zeros((64, 50))
    img[5, 5] = np.nan
    with pytest.raises(FormatError):
        codec.decode(img[None], [(0, 0, 30)], [(10, 10, 1.6)], [12e9])
    # a bad image past the first internal block is caught too
    n = DECODE_CHUNK + 2
    stack = np.zeros((n, 64, 50))
    stack[-1] = img
    with pytest.raises(FormatError):
        codec.decode(stack, [(0, 0, 30)] * n, [(10, 10, 1.6)] * n, [12e9] * n)


def reference_decode(codec, image, tx, rx, carrier_freq, stats):
    """Per-image decode, written column by column as the definition reads."""
    values = codec.scaler.unscale_array(untile_array(np.asarray(image, dtype=np.float64)))
    _, dist3d = geometry(tx, rx)
    values[PL] += fspl(dist3d, carrier_freq)
    base_delay = dist3d / SPEED_OF_LIGHT
    values[DLY] = values[DLY] / codec.delay_scale + base_delay
    is_los = float(values[LS].mean()) > 0.0
    if is_los:
        values[:PS + 1, 0] = los_params(tx, rx, carrier_freq).as_array()
    keep = values[PL] <= codec.outage_threshold_db
    if not np.any(keep):
        return LinkRecord(tx, rx, carrier_freq, LinkState.OUTAGE, [])
    cols = values[:, keep]
    stats["delay_floored"] += int(np.count_nonzero(cols[DLY] < base_delay))
    stats["pathloss_floored"] += int(np.count_nonzero(cols[PL] <= 0.0))
    cols[DLY] = np.maximum(cols[DLY], base_delay)
    cols[PL] = np.maximum(cols[PL], 1e-9)
    cols[AOD] = wrap_azimuth(cols[AOD])
    cols[AOA] = wrap_azimuth(cols[AOA])
    cols[ZOD] = np.clip(cols[ZOD], 0.0, 180.0)
    cols[ZOA] = np.clip(cols[ZOA], 0.0, 180.0)
    cols[PS] = wrap_phase(cols[PS])
    cols = cols[:, np.argsort(cols[DLY], kind="stable")]
    paths = [PathParams(*(float(v) for v in c[:PS + 1])) for c in cols.T]
    return LinkRecord(tx, rx, carrier_freq, LinkState.LOS if is_los else LinkState.NLOS, paths)


def test_stacked_decode_matches_per_image_reference():
    # wide scaler ranges push decoded values past every physical limit:
    # pathloss <= 0 and > 180 dB, delays before the LOS arrival, azimuths and
    # phases outside their wrap intervals, zeniths outside [0, 180]
    lo = np.array([-300.0, -1e3, -400.0, -60.0, -400.0, -60.0, -800.0, -1.0])
    hi = np.array([300.0, 1e3, 400.0, 240.0, 400.0, 240.0, 300.0, 1.0])
    doc = ChannelImageCodec(np.stack([lo, hi], axis=1), FeatureScaler(lo, hi)).to_dict()
    stacked, single, ref = (ChannelImageCodec.from_dict(doc) for _ in range(3))

    rng = np.random.default_rng(21)
    n = DECODE_CHUNK + 7  # crosses an internal block boundary
    mats = rng.uniform(-1.1, 1.1, size=(n, 8, 25))  # some cells out of range
    mats[0, PL] = 1.0  # every column above the outage threshold ...
    mats[0, LS] = -0.5  # ... and no LOS column written over them
    mats[1, LS] = 0.5  # clear LOS vote
    mats[2, LS] = -0.5  # clear NLOS vote
    images = tile_array(mats)
    tx = np.column_stack([rng.uniform(-200, 200, (n, 2)), np.full(n, 30.0)])
    rx = np.column_stack([rng.uniform(-200, 200, (n, 2)), rng.choice([1.6, 30.0, 60.0], n)])
    freq = rng.choice([3.5e9, 12e9, 28e9], n)

    got = stacked.decode(images, tx, rx, freq)
    ones = [single.decode(images[i:i + 1], tx[i:i + 1], rx[i:i + 1], freq[i:i + 1])[0]
            for i in range(n)]
    stats = {"delay_floored": 0, "pathloss_floored": 0}
    want = [reference_decode(ref, images[i], tuple(tx[i]), tuple(rx[i]), float(freq[i]),
                             stats)
            for i in range(n)]
    assert [repr(r) for r in got] == [repr(r) for r in want]  # repr keeps every bit
    assert [repr(r) for r in ones] == [repr(r) for r in want]
    assert stacked.stats == single.stats == stats
    assert stacked.scaler.n_clipped == single.scaler.n_clipped == ref.scaler.n_clipped > 0

    states = [r.link_state for r in want]
    assert states[0] is LinkState.OUTAGE and states[1] is LinkState.LOS
    assert states[2] is LinkState.NLOS
    assert stats["delay_floored"] > 0 and stats["pathloss_floored"] > 0
    raw = ref.scaler.unscale_array(mats.clip(-1, 1))
    assert np.any(np.abs(raw[:, AOD]) > 180.0) and np.any(raw[:, ZOD] < 0.0)
    assert np.any(raw[:, ZOA] > 180.0) and np.any(raw[:, PS] > 0.0)


def test_decode_rejects_mismatched_geometry(codec):
    with pytest.raises(DataError):
        codec.decode(np.zeros((2, 64, 50)), [(0, 0, 30)], [(10, 10, 1.6)] * 2, [12e9] * 2)


def test_decode_sanitizes_gan_style_output(codec):
    # arbitrary in-range pixels must decode to a valid link record
    rng = np.random.default_rng(15)
    img = rng.uniform(-1, 1, size=(64, 50))
    dec = codec.decode(img[None], [(0.0, 0.0, 30.0)], [(100.0, 50.0, 1.6)], [12e9])[0]
    for p in dec.paths:
        assert -180.0 < p.aod <= 180.0 and -180.0 < p.aoa <= 180.0
        assert 0.0 <= p.zod <= 180.0 and 0.0 <= p.zoa <= 180.0
        assert -360.0 < p.phase <= 0.0


def test_codec_json_roundtrip(codec):
    doc = codec.to_dict()
    back = ChannelImageCodec.from_dict(doc)
    np.testing.assert_array_equal(back.scaler.feature_min, codec.scaler.feature_min)
    np.testing.assert_array_equal(back.virtual_ranges, codec.virtual_ranges)
    assert back.eps == codec.eps


def test_dataset_encoder_matches_encode_link(dataset, codec):
    # real-path cells do not depend on the padding draws, so the vectorized
    # encoder must reproduce encode_link exactly on them
    enc = DatasetEncoder(dataset, codec)
    images, conds = enc.encode_batch(np.arange(len(dataset)), substream(16, "x"))
    rng = substream(17, "y")
    for i, lk in enumerate(dataset):
        ref = codec.encode_link(lk, rng)
        mask = np.zeros((8, 25), dtype=bool)
        mask[:, : lk.n_paths] = True
        mask[LS, :] = False  # state value is a fresh draw per realization
        tiled_mask = np.repeat(np.repeat(mask, 8, axis=0), 2, axis=1)
        np.testing.assert_allclose(images[i][tiled_mask], ref[tiled_mask], atol=1e-12)
        d2, _ = geometry(lk.tx, lk.rx)
        assert conds[i, 0] == d2 and conds[i, 1] == lk.rx[2]


def test_dataset_encoder_images_in_range(dataset, codec):
    enc = DatasetEncoder(dataset, codec)
    images, _ = enc.encode_all(substream(18, "x"), realizations=2)
    assert images.shape == (2 * len(dataset), 64, 50)
    assert np.all(images >= -1.0) and np.all(images <= 1.0)
