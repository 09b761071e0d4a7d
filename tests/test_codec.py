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
    FeatureScaler,
    fit_codec,
    tile,
    untile,
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


# scaler ranges wide enough that no test link clips, symmetric so that 0 maps
# to 0 and back exactly
WIDE_LO = np.array([-300.0, -1e3, -400.0, -60.0, -400.0, -60.0, -800.0, -1.0])
WIDE_HI = np.array([300.0, 1e3, 400.0, 240.0, 400.0, 240.0, 300.0, 1.0])


@pytest.fixture
def wide(codec):
    """The dataset's virtual ranges with a scaler that clips nothing."""
    return ChannelImageCodec(codec.virtual_ranges, FeatureScaler(WIDE_LO, WIDE_HI))


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


def reference_prescale(virtual_ranges, eps, links, rng):
    """Per-link pad -> re-reference, written as the definition reads.

    Draws in encode's order: a (N, 25) block of virtual pathloss, one (N, 25)
    block per row from delay to phase, then one link-state value per link.
    """
    n = len(links)
    draws = [rng.uniform(181.0, 190.0, size=(n, 25))]
    draws += [rng.uniform(*virtual_ranges[row], size=(n, 25)) for row in range(DLY, PS + 1)]
    u = rng.uniform(0.0, eps, size=n)
    out = np.empty((n, 8, 25))
    for i, lk in enumerate(links):
        k = lk.n_paths
        m = out[i]
        for row in range(PS + 1):  # pad
            m[row, :k] = [p.as_array()[row] for p in lk.paths]
            m[row, k:] = draws[row][i, k:]
        m[LS] = 1.0 - u[i] if lk.link_state is LinkState.LOS else -1.0 + u[i]
        _, d3 = geometry(lk.tx, lk.rx)  # re-reference
        m[PL] -= fspl(d3, lk.carrier_freq)
        m[DLY] = (m[DLY] - d3 / SPEED_OF_LIGHT) * 1e7
    return out


def reference_encode(codec, links, rng):
    """(images, conditions, clipped cells): reference_prescale -> scale -> tile."""
    pre = reference_prescale(codec.virtual_ranges, codec.eps, links, rng)
    lo = codec.scaler.feature_min[:, None]
    hi = codec.scaler.feature_max[:, None]
    images = np.empty((len(links), 64, 50))
    clipped = 0
    for i, m in enumerate(pre):
        clipped += int(np.count_nonzero((m < lo) | (m > hi)))
        scaled = np.clip(2.0 * (m - lo) / (hi - lo) - 1.0, -1.0, 1.0)
        images[i] = np.kron(scaled, np.ones((8, 2)))
    conds = np.array([[geometry(lk.tx, lk.rx)[0], lk.rx[2]] for lk in links])
    return images, conds, clipped


def prescaled(codec, links, rng):
    """encode's matrices before scaling, recovered through untile and unscale."""
    images, _ = codec.encode(links, rng)
    return codec.scaler.unscale(untile(images))


# -- padding -------------------------------------------------------------------


def test_pad_full_link_adds_no_virtual_columns(wide):
    link = make_link(25)
    m = prescaled(wide, [link], substream(0, "x"))[0]
    _, d3 = geometry(link.tx, link.rx)
    assert np.all(m[PL] + fspl(d3, link.carrier_freq) < 180.0)
    real = np.stack([p.as_array() for p in link.paths], axis=1)
    np.testing.assert_allclose(m[AOD:PS + 1], real[AOD:], rtol=0, atol=1e-9)


def test_pad_13_paths_virtual_pathloss_above_threshold(wide):
    link = make_link(13)
    m = prescaled(wide, [link], substream(1, "x"))[0]
    _, d3 = geometry(link.tx, link.rx)
    pl = m[PL] + fspl(d3, link.carrier_freq)
    assert np.all(pl[13:] > 181.0 - 1e-9)
    assert np.all(pl[13:] < 190.0 + 1e-9)
    assert np.all(pl[:13] < 180.0)


def test_pad_virtual_values_inside_dataset_ranges(dataset, codec, wide):
    # brute-force scan of the dataset is the oracle for the ranges
    cols = np.concatenate(
        [np.stack([p.as_array() for p in lk.paths], axis=1) for lk in dataset], axis=1)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    np.testing.assert_array_equal(codec.virtual_ranges[:LS, 0], lo)
    np.testing.assert_array_equal(codec.virtual_ranges[:LS, 1], hi)
    np.testing.assert_array_equal(codec.virtual_ranges[LS], [-1.0, 1.0])

    links = [make_link(n) for n in (1, 7, 24)]
    tol = 1e-9 * np.maximum(np.abs(lo), np.abs(hi))
    for lk, m in zip(links, prescaled(wide, links, substream(2, "x"))):
        n = lk.n_paths
        _, d3 = geometry(lk.tx, lk.rx)
        m[DLY] = m[DLY] / 1e7 + d3 / SPEED_OF_LIGHT
        for row in range(DLY, PS + 1):
            assert np.all(m[row, n:] >= lo[row] - tol[row])
            assert np.all(m[row, n:] <= hi[row] + tol[row])


def test_pad_link_state_row(wide):
    rng = substream(3, "x")
    m = prescaled(wide, [make_link(5), make_link(5, state=LinkState.LOS)], rng)
    assert np.all(m[:, LS] == m[:, LS, :1])
    assert -1.0 <= m[0, LS, 0] <= -0.99
    assert 0.99 <= m[1, LS, 0] <= 1.0


def test_pad_rejects_empty_and_oversized(codec):
    empty = LinkRecord((0, 0, 1), (1, 0, 1), 12e9, LinkState.OUTAGE, [])
    with pytest.raises(DataError, match="link 1 has zero paths"):
        codec.encode([make_link(3), empty], substream(4, "x"))


# -- normalization ---------------------------------------------------------------


def test_normalize_los_first_path_is_zero(wide):
    tx, rx, f = (0.0, 0.0, 25.0), (200.0, 10.0, 1.6), 12e9
    link = LinkRecord(tx, rx, f, LinkState.LOS, [los_params(tx, rx, f)])
    m = prescaled(wide, [link], substream(5, "x"))[0]
    assert m[PL, 0] == 0.0
    assert m[DLY, 0] == 0.0


def test_normalize_delay_scaling(wide):
    link = make_link(1)
    _, d3 = geometry(link.tx, link.rx)
    link.paths[0].delay = d3 / SPEED_OF_LIGHT + 150e-9
    m = prescaled(wide, [link], substream(6, "x"))[0]
    assert m[DLY, 0] == pytest.approx(1.5, rel=1e-9)


# -- scaling ---------------------------------------------------------------------


def test_scaler_endpoints_exact():
    scaler = FeatureScaler(np.zeros(8), np.full(8, 10.0))
    vals = np.zeros((8, 25))
    vals[:, 0] = 0.0
    vals[:, 1] = 10.0
    vals[:, 2] = 5.0
    out = scaler.scale(vals)
    assert np.all(out[:, 0] == -1.0)
    assert np.all(out[:, 1] == 1.0)
    np.testing.assert_allclose(out[:, 2], 0.0, atol=1e-15)


def test_scaler_fit_matches_bruteforce(dataset, codec):
    # the fixture's codec was fitted on one realization drawn from this stream
    stack = reference_prescale(codec.virtual_ranges, codec.eps, dataset,
                               substream(11, "padding"))
    np.testing.assert_array_equal(codec.scaler.feature_min, stack.min(axis=(0, 2)))
    np.testing.assert_array_equal(codec.scaler.feature_max, stack.max(axis=(0, 2)))


def test_scaler_single_matrix_fit():
    # one link's link-state row is constant, so its scaler is degenerate; one
    # link per state is the smallest dataset that fits
    los = make_link(7, state=LinkState.LOS)
    with pytest.raises(DataError, match="link_state"):
        fit_codec([los], substream(7, "x"))
    links = [los, make_link(3)]
    two = fit_codec(links, substream(7, "x"))
    real = np.stack([p.as_array() for p in los.paths], axis=1)  # holds both links' paths
    np.testing.assert_array_equal(two.virtual_ranges[:LS, 0], real.min(axis=1))
    np.testing.assert_array_equal(two.virtual_ranges[:LS, 1], real.max(axis=1))
    m = reference_prescale(two.virtual_ranges, two.eps, links, substream(7, "x"))
    np.testing.assert_array_equal(two.scaler.feature_min, m.min(axis=(0, 2)))
    np.testing.assert_array_equal(two.scaler.feature_max, m.max(axis=(0, 2)))


def test_scaler_roundtrip_property():
    rng = np.random.default_rng(8)
    scaler = FeatureScaler(-rng.uniform(1, 100, 8), rng.uniform(1, 100, 8))
    for _ in range(50):
        vals = rng.uniform(scaler.feature_min[:, None], scaler.feature_max[:, None],
                           size=(8, 25))
        back = scaler.unscale(scaler.scale(vals))
        assert np.max(np.abs(back - vals)) < 1e-12
        assert np.all(np.abs(scaler.scale(vals)) <= 1.0)


def test_scaler_clamps_and_counts():
    scaler = FeatureScaler(np.zeros(8), np.ones(8))
    vals = np.full((8, 25), 0.5)
    vals[0, 0] = 2.0  # out of range
    out = scaler.scale(vals)
    assert out[0, 0] == 1.0
    assert scaler.n_clipped == 1


def test_scaler_rejects_degenerate_feature():
    with pytest.raises(DataError, match="delay"):
        FeatureScaler(np.zeros(8), np.r_[1.0, 0.0, np.ones(6)])


def test_fit_codec_empty(codec):
    with pytest.raises(DataError):
        fit_codec([], substream(0, "x"))
    with pytest.raises(DataError):
        codec.encode([], substream(0, "x"))


# -- tiling ----------------------------------------------------------------------


def test_tile_replicates_blocks():
    vals = np.zeros((8, 25))
    vals[0, 0] = 0.5
    img = tile(vals)
    assert img.shape == (64, 50)
    assert np.all(img[0:8, 0:2] == 0.5)
    assert np.all(img[8:, :] == 0.0)
    assert np.all(img[:, 2:] == 0.0)


def test_untile_tile_bit_exact():
    rng = np.random.default_rng(9)
    vals = rng.uniform(-1, 1, size=(200, 8, 25))
    images = tile(vals)
    np.testing.assert_array_equal(images, np.kron(vals, np.ones((8, 2))))
    assert np.array_equal(untile(images), vals)


def test_untile_noise_attenuation():
    rng = np.random.default_rng(10)
    vals = rng.uniform(-0.9, 0.9, size=(8, 25))
    noisy = tile(vals) + rng.uniform(-0.01, 0.01, size=(64, 50))
    assert np.max(np.abs(untile(noisy) - vals)) <= 0.01


def test_untile_rejects_bad_shape():
    with pytest.raises(DataError):
        untile(np.zeros((63, 50)))


# -- encode ------------------------------------------------------------------------


def encode_cases(dataset):
    """The dataset plus a full 25-path and 1-path link in each state."""
    tx, rx, f = (0.0, 0.0, 25.0), (200.0, 10.0, 1.6), 12e9
    los_1 = LinkRecord(tx, rx, f, LinkState.LOS, [los_params(tx, rx, f)])
    links = [*dataset, make_link(25), make_link(25, state=LinkState.LOS), make_link(1), los_1]
    counts = {lk.n_paths for lk in links}
    states = {lk.link_state for lk in links}
    assert {1, 25} <= counts and {LinkState.LOS, LinkState.NLOS} <= states
    return links


def test_encode_matches_per_link_reference(dataset, codec):
    # every cell, virtual and link-state cells included, bit for bit
    links = encode_cases(dataset)
    enc = ChannelImageCodec.from_dict(codec.to_dict())
    images, conds = enc.encode(links, substream(16, "x"))
    want, want_conds, clipped = reference_encode(codec, links, substream(16, "x"))
    assert images.dtype == np.float64
    np.testing.assert_array_equal(images, want)
    np.testing.assert_array_equal(conds, want_conds)
    assert enc.scaler.n_clipped == clipped


def test_encode_counts_clipped_cells(wide):
    # aod of a full link runs from -120 to 120 deg, all above a -170 deg max
    wide.scaler.feature_max[AOD] = -170.0
    images, _ = wide.encode([make_link(25)], substream(19, "x"))
    assert wide.scaler.n_clipped == 25
    assert np.all(images[0, 8 * AOD:8 * (AOD + 1)] == 1.0)
    wide.encode([make_link(25)], substream(20, "x"))
    assert wide.scaler.n_clipped == 50


# -- full encode/decode -----------------------------------------------------------


def decode_stack(codec, images, links):
    """Decode images[i] against the geometry of links[i]."""
    return codec.decode(images, [lk.tx for lk in links], [lk.rx for lk in links],
                        [lk.carrier_freq for lk in links])


def decode_one(codec, image, link):
    return decode_stack(codec, np.asarray(image)[None], [link])[0]


def test_roundtrip_surrogate_links(dataset, codec):
    images, _ = codec.encode(dataset, substream(12, "roundtrip"))
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
    images, _ = codec.encode(dataset, substream(13, "los"))
    for lk, dec in zip(dataset, decode_stack(codec, images, dataset)):
        if lk.link_state is LinkState.LOS:
            np.testing.assert_array_equal(dec.paths[0].as_array(), lk.paths[0].as_array())


def test_decode_negative_last_row_is_nlos(codec):
    link = make_link(10)
    images, _ = codec.encode([link], substream(14, "x"))
    dec = decode_one(codec, images[0], link)
    assert dec.link_state is LinkState.NLOS


def test_decode_all_paths_above_threshold_is_outage(codec):
    # craft an image whose decoded pathloss is ~185 dB everywhere
    link = make_link(10)
    _, d3 = geometry(link.tx, link.rx)
    vals = np.zeros((8, 25))
    vals[PL] = 185.0 - fspl(d3, link.carrier_freq)
    vals[DLY] = 1.0
    vals[LS] = -0.995
    img = tile(codec.scaler.scale(vals))
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
    values = codec.scaler.unscale(untile(np.asarray(image, dtype=np.float64)))
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
    images = tile(mats)
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
    raw = ref.scaler.unscale(mats.clip(-1, 1))
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


def test_encode_images_in_range(dataset, codec):
    rng = substream(18, "x")
    for _ in range(2):
        images, conds = codec.encode(dataset, rng)
        assert images.shape == (len(dataset), 64, 50)
        assert np.all(images >= -1.0) and np.all(images <= 1.0)
        for lk, c in zip(dataset, conds):
            assert c[0] == geometry(lk.tx, lk.rx)[0] and c[1] == lk.rx[2]
