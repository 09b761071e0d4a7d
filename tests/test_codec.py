"""Channel codec: padding, re-referencing, scaling, decode, and the 64x50 rendering."""

import re

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
)
from chanimg.core import (
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    LinkTable,
    PathParams,
    closed_forms,
    wrap_azimuth,
    wrap_phase,
)
from chanimg.errors import DataError, FormatError, GeometryError
from chanimg.rng import substream
from chanimg.surrogate import SurrogateConfig, generate_dataset


@pytest.fixture(scope="module")
def table():
    return generate_dataset(SurrogateConfig(num_tx=5, num_rx_per_height=20, seed=11))


@pytest.fixture(scope="module")
def dataset(table):
    """The table's links as LinkRecords, the input of the per-link references."""
    return [LinkRecord(tx, rx, f, state, [PathParams(*row) for row in rows[:n]])
            for tx, rx, f, state, n, rows in zip(
                table.tx.tolist(), table.rx.tolist(), table.carrier_freq.tolist(),
                table.state, table.counts.tolist(), table.paths.tolist())]


@pytest.fixture(scope="module")
def codec(table):
    return fit_codec(table, substream(11, "padding"))


# scaler ranges wide enough that no test link clips, symmetric so that 0 maps
# to 0 and back exactly
WIDE_LO = np.array([-300.0, -1e3, -400.0, -60.0, -400.0, -60.0, -800.0, -1.0])
WIDE_HI = np.array([300.0, 1e3, 400.0, 240.0, 400.0, 240.0, 300.0, 1.0])


@pytest.fixture
def wide(codec):
    """The dataset's virtual ranges with a scaler that clips nothing."""
    return ChannelImageCodec(codec.virtual_ranges, FeatureScaler(WIDE_LO, WIDE_HI))


def forms(tx, rx, freq):
    """(dist2d, dist3d, fspl, los (7,)) of one link."""
    d2, d3, pl, los = closed_forms([tx], [rx], [freq])
    return float(d2[0]), float(d3[0]), float(pl[0]), los[0]


def los_params(tx, rx, freq):
    """The closed-form LOS path of one link."""
    return PathParams(*forms(tx, rx, freq)[3].tolist())


def make_link(n_paths, state=LinkState.NLOS, freq=12e9):
    tx, rx = (0.0, 0.0, 30.0), (100.0, 50.0, 1.6)
    _, d3, base_pl, _ = forms(tx, rx, freq)
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
        _, d3, base_pl, _ = forms(lk.tx, lk.rx, lk.carrier_freq)  # re-reference
        m[PL] -= base_pl
        m[DLY] = (m[DLY] - d3 / SPEED_OF_LIGHT) * 1e7
    return out


def reference_encode(codec, links, rng):
    """(matrices, conditions, clipped cells): reference_prescale -> scale."""
    pre = reference_prescale(codec.virtual_ranges, codec.eps, links, rng)
    lo = codec.scaler.feature_min[:, None]
    hi = codec.scaler.feature_max[:, None]
    matrices = np.empty((len(links), 8, 25))
    clipped = 0
    for i, m in enumerate(pre):
        clipped += int(np.count_nonzero((m < lo) | (m > hi)))
        matrices[i] = np.clip(2.0 * (m - lo) / (hi - lo) - 1.0, -1.0, 1.0)
    conds = np.array([[forms(lk.tx, lk.rx, lk.carrier_freq)[0], lk.rx[2]] for lk in links])
    return matrices, conds, clipped


def prescaled(codec, links, rng):
    """encode's matrices before scaling, recovered through unscale."""
    matrices, _ = codec.encode(LinkTable.from_links(links), rng)
    return codec.scaler.unscale(matrices)


# -- padding -------------------------------------------------------------------


def test_pad_full_link_adds_no_virtual_columns(wide):
    link = make_link(25)
    m = prescaled(wide, [link], substream(0, "x"))[0]
    assert np.all(m[PL] + forms(link.tx, link.rx, link.carrier_freq)[2] < 180.0)
    real = np.stack([p.as_array() for p in link.paths], axis=1)
    np.testing.assert_allclose(m[AOD:PS + 1], real[AOD:], rtol=0, atol=1e-9)


def test_pad_13_paths_virtual_pathloss_above_threshold(wide):
    link = make_link(13)
    m = prescaled(wide, [link], substream(1, "x"))[0]
    pl = m[PL] + forms(link.tx, link.rx, link.carrier_freq)[2]
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
        d3 = forms(lk.tx, lk.rx, lk.carrier_freq)[1]
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
        codec.encode(LinkTable.from_links([make_link(3), empty]), substream(4, "x"))


# -- normalization ---------------------------------------------------------------


def test_normalize_los_first_path_is_zero(wide):
    tx, rx, f = (0.0, 0.0, 25.0), (200.0, 10.0, 1.6), 12e9
    link = LinkRecord(tx, rx, f, LinkState.LOS, [los_params(tx, rx, f)])
    m = prescaled(wide, [link], substream(5, "x"))[0]
    assert m[PL, 0] == 0.0
    assert m[DLY, 0] == 0.0


def test_normalize_delay_scaling(wide):
    link = make_link(1)
    d3 = forms(link.tx, link.rx, link.carrier_freq)[1]
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
        fit_codec(LinkTable.from_links([los]), substream(7, "x"))
    links = [los, make_link(3)]
    two = fit_codec(LinkTable.from_links(links), substream(7, "x"))
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
    with pytest.raises(DataError, match="empty"):
        LinkTable.from_links([])
    empty = LinkTable.from_links([make_link(3)]).take([])
    with pytest.raises(DataError, match="empty"):
        fit_codec(empty, substream(0, "x"))
    with pytest.raises(DataError, match="empty"):
        codec.encode(empty, substream(0, "x"))
    with pytest.raises(DataError, match="empty link dataset"):
        codec.decode(np.zeros((0, 8, 25)), empty)


# -- tiling ----------------------------------------------------------------------


def test_tile_replicates_blocks():
    vals = np.zeros((8, 25))
    vals[0, 0] = 0.5
    img = tile(vals)
    assert img.shape == (64, 50)
    assert np.all(img[0:8, 0:2] == 0.5)
    assert np.all(img[8:, :] == 0.0)
    assert np.all(img[:, 2:] == 0.0)


def test_tile_renders_a_stack_as_kron_blocks():
    rng = np.random.default_rng(9)
    vals = rng.uniform(-1, 1, size=(200, 8, 25))
    np.testing.assert_array_equal(tile(vals), np.kron(vals, np.ones((8, 2))))


def test_tile_rejects_bad_shape():
    for shape in ((8, 24), (3, 2, 2), (25, 8)):
        with pytest.raises(DataError, match="8x25"):
            tile(np.zeros(shape))


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
    matrices, conds = enc.encode(LinkTable.from_links(links), substream(16, "x"))
    want, want_conds, clipped = reference_encode(codec, links, substream(16, "x"))
    assert matrices.dtype == np.float64
    np.testing.assert_array_equal(matrices, want)
    np.testing.assert_array_equal(conds, want_conds)
    assert enc.scaler.n_clipped == clipped


def test_encode_counts_clipped_cells(wide):
    # aod of a full link runs from -120 to 120 deg, all above a -170 deg max
    wide.scaler.feature_max[AOD] = -170.0
    matrices, _ = wide.encode(LinkTable.from_links([make_link(25)]), substream(19, "x"))
    assert wide.scaler.n_clipped == 25
    assert np.all(matrices[0, AOD] == 1.0)
    wide.encode(LinkTable.from_links([make_link(25)]), substream(20, "x"))
    assert wide.scaler.n_clipped == 50


# -- full encode/decode -----------------------------------------------------------


def decode_stack(codec, matrices, links):
    """The table of matrices[i] decoded against the geometry of links[i]."""
    return codec.decode(matrices, LinkTable.from_links(links))


def geometry_table(tx, rx, carrier_freq):
    """A table of path-less links holding just the given geometry rows."""
    return LinkTable.from_links(LinkRecord(a, b, f, LinkState.OUTAGE, [])
                                for a, b, f in zip(tx, rx, carrier_freq))


def decode_one(codec, matrix, link):
    """(state, (k, 7) path rows) of one matrix decoded against link's geometry."""
    dec = decode_stack(codec, np.asarray(matrix)[None], [link])
    return dec.state[0], dec.paths[0, :dec.counts[0]]


def test_roundtrip_surrogate_links(dataset, table, codec):
    matrices, _ = codec.encode(table, substream(12, "roundtrip"))
    dec = codec.decode(matrices, table)
    # the geometry columns are the given table's, not recomputed
    for name in ("tx", "rx", "carrier_freq", "dist2d", "dist3d", "fspl", "los"):
        assert getattr(dec, name) is getattr(table, name), name
    assert list(dec.state) == [lk.link_state for lk in dataset]
    np.testing.assert_array_equal(dec.counts, table.counts)  # no virtual survivors
    assert not dec.paths[~dec.valid].any()
    worst = np.abs(dec.paths - table.paths).max(axis=(0, 1))
    assert worst[PL] <= 1e-3
    assert worst[DLY] <= 1e-12
    assert np.all(worst[[AOD, ZOD, AOA, ZOA, PS]] <= 1e-3)


def test_roundtrip_los_first_path_exact(dataset, table, codec):
    matrices, _ = codec.encode(table, substream(13, "los"))
    dec = codec.decode(matrices, table)
    los = table.state == LinkState.LOS
    assert los.any()
    np.testing.assert_array_equal(dec.paths[los, 0], table.paths[los, 0])


def test_decode_negative_last_row_is_nlos(codec):
    link = make_link(10)
    matrices, _ = codec.encode(LinkTable.from_links([link]), substream(14, "x"))
    state, _ = decode_one(codec, matrices[0], link)
    assert state is LinkState.NLOS


def test_decode_all_paths_above_threshold_is_outage(codec):
    # craft a matrix whose decoded pathloss is ~185 dB everywhere
    link = make_link(10)
    vals = np.zeros((8, 25))
    vals[PL] = 185.0 - forms(link.tx, link.rx, link.carrier_freq)[2]
    vals[DLY] = 1.0
    vals[LS] = -0.995
    state, paths = decode_one(codec, codec.scaler.scale(vals), link)
    assert state is LinkState.OUTAGE
    assert len(paths) == 0


def test_decode_rejects_nonfinite(codec):
    mat = np.zeros((8, 25))
    mat[5, 5] = np.nan
    with pytest.raises(FormatError):
        codec.decode(mat[None], geometry_table([(0, 0, 30)], [(10, 10, 1.6)], [12e9]))
    # a bad matrix past the first internal block is caught too
    n = DECODE_CHUNK + 2
    stack = np.zeros((n, 8, 25))
    stack[-1] = mat
    with pytest.raises(FormatError):
        codec.decode(stack, geometry_table([(0, 0, 30)] * n, [(10, 10, 1.6)] * n, [12e9] * n))


def reference_decode(codec, matrix, tx, rx, carrier_freq, stats):
    """(state, (k, 7) path rows) of one matrix, column by column as the definition reads."""
    values = codec.scaler.unscale(np.asarray(matrix, dtype=np.float64))
    _, dist3d, base_pl, los = forms(tx, rx, carrier_freq)
    values[PL] += base_pl
    base_delay = dist3d / SPEED_OF_LIGHT
    values[DLY] = values[DLY] / codec.delay_scale + base_delay
    is_los = float(values[LS].mean()) > 0.0
    if is_los:
        values[:PS + 1, 0] = los
    keep = values[PL] <= codec.outage_threshold_db
    if not np.any(keep):
        return LinkState.OUTAGE, np.zeros((0, 7))
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
    return LinkState.LOS if is_los else LinkState.NLOS, cols[:PS + 1].T


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
    tx = np.column_stack([rng.uniform(-200, 200, (n, 2)), np.full(n, 30.0)])
    rx = np.column_stack([rng.uniform(-200, 200, (n, 2)), rng.choice([1.6, 30.0, 60.0], n)])
    freq = rng.choice([3.5e9, 12e9, 28e9], n)

    geo = geometry_table(tx, rx, freq)
    got = stacked.decode(mats, geo)
    ones = [single.decode(mats[i:i + 1], geo.take([i])) for i in range(n)]
    stats = {"delay_floored": 0, "pathloss_floored": 0}
    want = [reference_decode(ref, mats[i], tuple(tx[i]), tuple(rx[i]), float(freq[i]),
                             stats)
            for i in range(n)]
    assert not got.paths[~got.valid].any()
    for i, (state, paths) in enumerate(want):  # every bit of every path row
        assert got.state[i] is state and ones[i].state[0] is state
        assert got.paths[i, :got.counts[i]].tobytes() == paths.tobytes()
        assert ones[i].paths[0, :ones[i].counts[0]].tobytes() == paths.tobytes()
    assert stacked.stats == single.stats == stats
    assert stacked.scaler.n_clipped == single.scaler.n_clipped == ref.scaler.n_clipped > 0

    states = [state for state, _ in want]
    assert states[0] is LinkState.OUTAGE and states[1] is LinkState.LOS
    assert states[2] is LinkState.NLOS
    assert stats["delay_floored"] > 0 and stats["pathloss_floored"] > 0
    raw = ref.scaler.unscale(mats.clip(-1, 1))
    assert np.any(np.abs(raw[:, AOD]) > 180.0) and np.any(raw[:, ZOD] < 0.0)
    assert np.any(raw[:, ZOA] > 180.0) and np.any(raw[:, PS] > 0.0)


def test_decode_rejects_mismatched_geometry(codec):
    with pytest.raises(DataError):
        codec.decode(np.zeros((2, 8, 25)), geometry_table([(0, 0, 30)], [(10, 10, 1.6)], [12e9]))


@pytest.mark.parametrize("shape", [(1, 64, 50), (8, 25), (1, 8, 24), (1, 25, 8), (1, 1, 8, 25)])
def test_decode_rejects_stack_that_is_not_8x25(codec, shape):
    geo = geometry_table([(0, 0, 30)], [(10, 10, 1.6)], [12e9])
    with pytest.raises(DataError, match=f"got shape {re.escape(str(shape))}"):
        codec.decode(np.zeros(shape), geo)


def test_decode_los_vote_on_vertical_link_is_geometry_error(codec):
    # a vertical link has no LOS azimuth, so its table row holds no LOS path
    geo = geometry_table([(0.0, 0.0, 30.0)] * 2, [(10.0, 10.0, 1.6), (0.0, 0.0, 1.6)],
                         [12e9] * 2)
    assert np.all(np.isnan(geo.los[1])) and not np.any(np.isnan(geo.los[0]))
    vals = np.zeros((2, 8, 25))  # every column 0 dB above free space: all kept
    vals[:, LS] = -0.995
    nlos = codec.decode(codec.scaler.scale(vals), geo)
    assert list(nlos.state) == [LinkState.NLOS] * 2
    vals[:, LS] = 0.995
    with pytest.raises(GeometryError, match="matrix 1"):
        codec.decode(codec.scaler.scale(vals), geo)


def test_decode_sanitizes_gan_style_output(codec):
    # arbitrary in-range cells must decode to a valid link record
    rng = np.random.default_rng(15)
    mat = rng.uniform(-1, 1, size=(8, 25))
    dec = codec.decode(mat[None], geometry_table([(0.0, 0.0, 30.0)], [(100.0, 50.0, 1.6)],
                                                 [12e9]))
    assert dec.counts[0] > 0
    for row in dec.paths[0, :dec.counts[0]]:
        p = PathParams(*row.tolist())
        assert -180.0 < p.aod <= 180.0 and -180.0 < p.aoa <= 180.0
        assert 0.0 <= p.zod <= 180.0 and 0.0 <= p.zoa <= 180.0
        assert -360.0 < p.phase <= 0.0


def test_codec_json_roundtrip(codec):
    doc = codec.to_dict()
    back = ChannelImageCodec.from_dict(doc)
    np.testing.assert_array_equal(back.scaler.feature_min, codec.scaler.feature_min)
    np.testing.assert_array_equal(back.virtual_ranges, codec.virtual_ranges)
    assert back.eps == codec.eps


def test_encode_images_in_range(dataset, table, codec):
    rng = substream(18, "x")
    for _ in range(2):
        matrices, conds = codec.encode(table, rng)
        assert matrices.shape == (len(dataset), 8, 25)
        assert np.all(matrices >= -1.0) and np.all(matrices <= 1.0)
        for lk, c in zip(dataset, conds):
            assert c[0] == forms(lk.tx, lk.rx, lk.carrier_freq)[0] and c[1] == lk.rx[2]
