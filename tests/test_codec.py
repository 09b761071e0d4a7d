"""Channel codec: padding, re-referencing, scaling, decode, and the 64x50 rendering."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chanimg.codec import (
    AOA,
    AOD,
    BLOCK,
    DELAY_SCALE,
    DLY,
    LINK_STATE_EPS,
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
    OUTAGE_THRESHOLD_DB,
    SPEED_OF_LIGHT,
    LinkState,
    closed_forms,
    wrap_azimuth,
    wrap_phase,
)
from chanimg.errors import DataError, FormatError, GeometryError
from chanimg.rng import substream
from chanimg.surrogate import SurrogateConfig, generate_dataset
from tables import link, link_table, table_links


@pytest.fixture(scope="module")
def table():
    return generate_dataset(SurrogateConfig(num_tx=5, num_rx_per_height=20, seed=11))


@pytest.fixture(scope="module")
def dataset(table):
    """The table's links, the input of the per-link references."""
    return table_links(table)


@pytest.fixture(scope="module")
def codec(table):
    return fit_codec(table)


# scaler ranges wide enough that no test link clips, symmetric so that 0 maps
# to 0 and back exactly
WIDE_LO = np.array([-300.0, -1e3, -400.0, -60.0, -400.0, -60.0, -800.0, -1.0])
WIDE_HI = np.array([300.0, 1e3, 400.0, 240.0, 400.0, 240.0, 300.0, 1.0])


@pytest.fixture
def wide(codec):
    """The dataset's codec with a scaler that clips nothing."""
    return with_scaler(codec, WIDE_LO, WIDE_HI)


def with_scaler(codec, lo, hi):
    """A new codec of codec's fitted ranges whose scaler rows, fixed rows too, are lo, hi."""
    out = ChannelImageCodec.from_dict(codec.to_dict())
    out.scaler = FeatureScaler(lo, hi)
    return out


# the angle and phase domains core states: their scaler rows, and where their
# virtual cells are drawn
DOMAINS = {AOD: (-180.0, 180.0), ZOD: (0.0, 180.0), AOA: (-180.0, 180.0), ZOA: (0.0, 180.0),
           PS: (-360.0, 0.0)}


def forms(tx, rx, freq):
    """(dist2d, dist3d, fspl, los (7,)) of one link."""
    d2, d3, pl, los = closed_forms([tx], [rx], [freq])
    return float(d2[0]), float(d3[0]), float(pl[0]), los[0]


def los_params(tx, rx, freq):
    """The closed-form LOS path row of one link."""
    return forms(tx, rx, freq)[3]


def make_link(n_paths, state=LinkState.NLOS, freq=12e9):
    tx, rx = (0.0, 0.0, 30.0), (100.0, 50.0, 1.6)
    _, d3, base_pl, _ = forms(tx, rx, freq)
    base_dly = d3 / SPEED_OF_LIGHT
    paths = [
        [base_pl + 1.0 + 2.0 * i, base_dly + 1e-8 * (i + 1),
         -120.0 + 10.0 * i, 80.0 + i, 60.0 - 10.0 * i, 100.0 - i, -10.0 * (i + 1)]
        for i in range(n_paths)
    ]
    return link(tx, rx, freq, state, paths)


def reference_prescale(virtual_delay, eps, links, rng):
    """Per-link pad -> re-reference, written as the definition reads.

    Draws link by link: each link takes one (8, 25) block of uniforms u; a
    virtual cell of row r is lo + (hi - lo) u of its own u, with (lo, hi)
    = (181, 190) dB for pathloss, virtual_delay for delay and the DOMAINS
    otherwise, and the link-state jitter is eps times the u of the last
    row's first cell.
    """
    bands = {PL: (181.0, 190.0), DLY: virtual_delay, **DOMAINS}
    out = np.empty((len(links), 8, 25))
    for i, lk in enumerate(links):
        u = rng.random((8, 25))
        k = len(lk.paths)
        m = out[i]
        for row in range(PS + 1):  # pad
            lo, hi = bands[row]
            m[row, :k] = lk.paths[:, row]
            m[row, k:] = lo + (hi - lo) * u[row, k:]
        jitter = eps * u[LS, 0]
        m[LS] = 1.0 - jitter if lk.link_state is LinkState.LOS else -1.0 + jitter
        _, d3, base_pl, _ = forms(lk.tx, lk.rx, lk.carrier_freq)  # re-reference
        m[PL] -= base_pl
        m[DLY] = (m[DLY] - d3 / SPEED_OF_LIGHT) * 1e7
    return out


LARGEST_DRAW = 1.0 - 2.0**-53  # the largest double Generator.random returns


class ConstantDraws:
    """A stand-in rng whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def reference_fit(links, eps=0.01):
    """(feature_min, feature_max) of the scaler, as the definition reads.

    Pathloss and delay: the prescaled cells of every link, and of every
    link cut to its first path (so each link's virtual cells are there), at
    the smallest and the largest uniform draw, with the virtual delays over
    the real delays' range.  The other rows are the DOMAINS and the
    link-state row's nominal (-1, 1).
    """
    delays = np.concatenate([lk.paths[:, DLY] for lk in links])
    links = [*links, *(lk._replace(paths=lk.paths[:1]) for lk in links)]
    cells = np.concatenate([reference_prescale((delays.min(), delays.max()), eps, links,
                                               ConstantDraws(u))
                            for u in (0.0, LARGEST_DRAW)])
    lo, hi = cells.min(axis=(0, 2)), cells.max(axis=(0, 2))
    for row, (a, b) in {**DOMAINS, LS: (-1.0, 1.0)}.items():
        lo[row], hi[row] = a, b
    return lo, hi


def reference_encode(codec, links, rng):
    """(matrices, conditions, clipped cells): reference_prescale -> scale."""
    pre = reference_prescale(codec.virtual_delay, LINK_STATE_EPS, links, rng)
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
    matrices, _ = codec.encode(link_table(links), rng)
    return codec.scaler.unscale(matrices)


# -- padding -------------------------------------------------------------------


def test_pad_full_link_adds_no_virtual_columns(wide):
    link = make_link(25)
    m = prescaled(wide, [link], substream(0, "x"))[0]
    assert np.all(m[PL] + forms(link.tx, link.rx, link.carrier_freq)[2] < 180.0)
    real = link.paths.T
    np.testing.assert_allclose(m[AOD:PS + 1], real[AOD:], rtol=0, atol=1e-9)


def test_pad_13_paths_virtual_pathloss_above_threshold(wide):
    link = make_link(13)
    m = prescaled(wide, [link], substream(1, "x"))[0]
    pl = m[PL] + forms(link.tx, link.rx, link.carrier_freq)[2]
    assert np.all(pl[13:] > 181.0 - 1e-9)
    assert np.all(pl[13:] < 190.0 + 1e-9)
    assert np.all(pl[:13] < 180.0)


def test_pad_virtual_values_inside_dataset_ranges(dataset, codec, wide):
    # brute-force scan of the dataset is the oracle for the delay band
    delays = np.concatenate([lk.paths[:, DLY] for lk in dataset])
    assert codec.virtual_delay == (delays.min(), delays.max())

    links = [make_link(n) for n in (1, 7, 24)]
    for lk, m in zip(links, prescaled(wide, links, substream(2, "x"))):
        n = len(lk.paths)
        d3 = forms(lk.tx, lk.rx, lk.carrier_freq)[1]
        m[DLY] = m[DLY] / 1e7 + d3 / SPEED_OF_LIGHT
        for row, (lo, hi) in {DLY: codec.virtual_delay, **DOMAINS}.items():
            tol = 1e-9 * max(abs(lo), abs(hi))
            assert np.all(m[row, n:] >= lo - tol)
            assert np.all(m[row, n:] <= hi + tol)


def test_pad_link_state_row(wide):
    rng = substream(3, "x")
    m = prescaled(wide, [make_link(5), make_link(5, state=LinkState.LOS)], rng)
    assert np.all(m[:, LS] == m[:, LS, :1])
    assert -1.0 <= m[0, LS, 0] <= -0.99
    assert 0.99 <= m[1, LS, 0] <= 1.0


def test_pad_rejects_empty_and_oversized(codec):
    empty = link((0, 0, 1), (1, 0, 1), 12e9, LinkState.OUTAGE)
    with pytest.raises(DataError, match="link 1 has zero paths"):
        codec.encode(link_table([make_link(3), empty]), substream(4, "x"))


# -- normalization ---------------------------------------------------------------


def test_normalize_los_first_path_is_zero(wide):
    tx, rx, f = (0.0, 0.0, 25.0), (200.0, 10.0, 1.6), 12e9
    los = link(tx, rx, f, LinkState.LOS, [los_params(tx, rx, f)])
    m = prescaled(wide, [los], substream(5, "x"))[0]
    assert m[PL, 0] == 0.0
    assert m[DLY, 0] == 0.0


def test_normalize_delay_scaling(wide):
    link = make_link(1)
    d3 = forms(link.tx, link.rx, link.carrier_freq)[1]
    link.paths[0, DLY] = d3 / SPEED_OF_LIGHT + 150e-9
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
    lo, hi = reference_fit(dataset)
    np.testing.assert_array_equal(codec.scaler.feature_min, lo)
    np.testing.assert_array_equal(codec.scaler.feature_max, hi)


def test_scaler_single_matrix_fit():
    # only pathloss and delay are fitted, so one link fits; one path leaves
    # its delay a single value, a degenerate scaler row
    with pytest.raises(DataError, match="delay"):
        fit_codec(link_table([make_link(1)]))
    los = make_link(7, state=LinkState.LOS)
    one = fit_codec(link_table([los]))
    assert one.virtual_delay == (los.paths[:, DLY].min(), los.paths[:, DLY].max())
    lo, hi = reference_fit([los])
    np.testing.assert_array_equal(one.scaler.feature_min, lo)
    np.testing.assert_array_equal(one.scaler.feature_max, hi)


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


def test_scale_into_out_is_scale():
    rng = np.random.default_rng(9)
    lo, hi = -rng.uniform(1, 100, 8), rng.uniform(1, 100, 8)
    vals = rng.uniform(1.2 * lo[:, None], 1.2 * hi[:, None], size=(40, 8, 25))  # some clip
    # the operation order scale has always had: subtract, x2, divide by the span, -1, clip
    want = np.clip(2.0 * (vals - lo[:, None]) / (hi - lo)[:, None] - 1.0, -1.0, 1.0)
    fresh, into, inplace = (FeatureScaler(lo, hi) for _ in range(3))
    before = vals.copy()
    assert fresh.scale(vals).tobytes() == want.tobytes()
    assert vals.tobytes() == before.tobytes()  # without out, values stay as they were
    out = np.empty_like(vals)
    assert into.scale(vals, out=out) is out and out.tobytes() == want.tobytes()
    assert inplace.scale(vals, out=vals) is vals and vals.tobytes() == want.tobytes()
    assert fresh.n_clipped == into.n_clipped == inplace.n_clipped > 0


def test_scaler_rejects_degenerate_feature(codec):
    # only the fitted rows can be degenerate; the other rows are fixed
    for key, row in (("pathloss", [1.0, 1.0]), ("delay", [1.0, 0.0])):
        with pytest.raises(DataError, match=f"degenerate feature '{key}'"):
            ChannelImageCodec.from_dict({**codec.to_dict(), key: row})


def test_fit_codec_empty(codec):
    with pytest.raises(DataError, match="empty"):
        link_table([])
    empty = link_table([make_link(3)]).take([])
    with pytest.raises(DataError, match="empty"):
        fit_codec(empty)
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
    los_1 = link(tx, rx, f, LinkState.LOS, [los_params(tx, rx, f)])
    links = [*dataset, make_link(25), make_link(25, state=LinkState.LOS), make_link(1), los_1]
    counts = {len(lk.paths) for lk in links}
    states = {lk.link_state for lk in links}
    assert {1, 25} <= counts and {LinkState.LOS, LinkState.NLOS} <= states
    return links


def test_encode_matches_per_link_reference(dataset, codec):
    # every cell, virtual and link-state cells included, bit for bit
    links = encode_cases(dataset)
    enc = ChannelImageCodec.from_dict(codec.to_dict())
    matrices, conds = enc.encode(link_table(links), substream(16, "x"))
    want, want_conds, clipped = reference_encode(codec, links, substream(16, "x"))
    assert matrices.dtype == np.float64
    np.testing.assert_array_equal(matrices, want)
    np.testing.assert_array_equal(conds, want_conds)
    assert enc.scaler.n_clipped == clipped


def test_encode_counts_clipped_cells(wide):
    # aod of a full link runs from -120 to 120 deg, all above a -170 deg max
    wide.scaler.feature_max[AOD] = -170.0
    matrices, _ = wide.encode(link_table([make_link(25)]), substream(19, "x"))
    assert wide.scaler.n_clipped == 25
    assert np.all(matrices[0, AOD] == 1.0)
    wide.encode(link_table([make_link(25)]), substream(20, "x"))
    assert wide.scaler.n_clipped == 50


# one short block, one full block, one link over, three blocks and a ragged 3
@pytest.mark.parametrize("n", [5, 7, 8, 24])
def test_padding_blocks_draw_the_whole_table_reference(dataset, codec, monkeypatch, n):
    monkeypatch.setattr("chanimg.codec.BLOCK", 7)
    links = dataset[:n]
    enc = ChannelImageCodec.from_dict(codec.to_dict())
    rng, ref = substream(16, "x"), substream(16, "x")
    matrices, _ = enc.encode(link_table(links), rng)
    want, _, clipped = reference_encode(codec, links, ref)
    np.testing.assert_array_equal(matrices, want)
    assert enc.scaler.n_clipped == clipped == 0
    assert rng.bit_generator.state == ref.bit_generator.state


def test_padding_draws_take_any_generator(dataset, table, codec):
    rng, ref = (np.random.Generator(np.random.MT19937(1)) for _ in range(2))
    matrices, _ = codec.encode(table, rng)
    np.testing.assert_array_equal(matrices, reference_encode(codec, dataset, ref)[0])
    dec = codec.decode(matrices, table)
    assert list(dec.state) == list(table.state)
    np.testing.assert_array_equal(dec.counts, table.counts)
    worst = np.abs(dec.paths - table.paths).max(axis=0)
    assert worst[PL] <= 1e-3 and worst[DLY] <= 1e-12
    assert np.all(worst[[AOD, ZOD, AOA, ZOA, PS]] <= 1e-3)


def test_extreme_draws_clip_nothing(table, codec):
    for u in (0.0, LARGEST_DRAW):
        enc = ChannelImageCodec.from_dict(codec.to_dict())
        matrices, _ = enc.encode(table, ConstantDraws(u))
        assert enc.scaler.n_clipped == 0
        if u == 0.0:  # the smallest draw reaches each fixed minimum
            np.testing.assert_array_equal(matrices[:, AOD:PS + 1].min(axis=(0, 2)), -1.0)
        else:  # the largest draw reaches each fitted maximum
            np.testing.assert_array_equal(matrices[:, :AOD].max(axis=(0, 2)), 1.0)


@st.composite
def codec_tables(draw):
    """Tables of 1-40 LOS and NLOS links with 1-25 paths each, that decode to themselves.

    A LOS link's first path is its closed-form LOS path.  The other paths
    have distinct whole-nanosecond excess delays and pathloss at most 40 dB
    above free space, and their angles keep clear of the wrap points, so
    decode's sort and wraps keep them as they are.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    links = []
    for _ in range(draw(st.integers(1, 40))):
        x, y = draw(st.floats(-250.0, 250.0)), draw(st.floats(-250.0, 250.0))
        dx, dy = draw(st.floats(1.0, 400.0)), draw(st.floats(-400.0, 400.0))
        tx = (x, y, draw(st.floats(10.0, 60.0)))
        rx = (x + dx, y + dy, draw(st.sampled_from([1.6, 30.0, 60.0])))
        freq = draw(st.sampled_from([3.5e9, 12e9, 28e9]))
        state = draw(st.sampled_from([LinkState.LOS, LinkState.NLOS]))
        n = draw(st.integers(1, 25))
        _, d3, base_pl, los = forms(tx, rx, freq)
        paths = np.column_stack([
            base_pl + rng.uniform(0.0, 40.0, n),
            d3 / SPEED_OF_LIGHT + np.sort(rng.choice(np.arange(1, 2001), n, replace=False)) * 1e-9,
            rng.uniform(-179.0, 179.0, n), rng.uniform(1.0, 179.0, n),
            rng.uniform(-179.0, 179.0, n), rng.uniform(1.0, 179.0, n),
            rng.uniform(-359.0, -1.0, n)])
        if state is LinkState.LOS:
            paths[0] = los
        links.append(link(tx, rx, freq, state, paths))
    return link_table(links)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(table=codec_tables())
def test_fitted_codec_clips_no_realization(table):
    # a single delay over the real paths may leave a degenerate delay row
    assume(np.ptp(table.paths[:, DLY]) > 0.0)
    codec = fit_codec(table)
    for seed in (1, 2):
        rng = substream(seed, "padding")
        for _ in range(3):
            matrices, _ = codec.encode(table, rng)
            assert codec.scaler.n_clipped == 0
            assert np.all((-1.0 <= matrices) & (matrices <= 1.0))
            dec = codec.decode(matrices, table)
            assert list(dec.state) == list(table.state)
            np.testing.assert_array_equal(dec.counts, table.counts)
            worst = np.abs(dec.paths - table.paths).max(axis=0)
            assert worst[PL] <= 1e-3 and worst[DLY] <= 1e-12
            assert np.all(worst[[AOD, ZOD, AOA, ZOA, PS]] <= 1e-3)


@pytest.fixture(scope="module")
def draws():
    """{seed: 5,000-link surrogate table} of two independent draws."""
    return {seed: generate_dataset(SurrogateConfig(num_tx=10, num_rx_per_height=100, seed=seed))
            for seed in (7, 9)}


@pytest.mark.parametrize("data_seed, codec_seed", [(9, 7), (7, 9)])
def test_codec_fitted_on_another_draw_round_trips(draws, data_seed, codec_seed):
    # measured while the angle and phase rows were fitted: the seed-7 codec
    # clipped 3 real AOA cells of seed 9 (-179.9988 deg against a row from
    # -179.9735), for a worst AOA error of 2.5e-2 deg
    table, codec = draws[data_seed], fit_codec(draws[codec_seed])
    # the real cells, re-referenced as encode does, against the scaler's rows
    cells = np.zeros((len(table.paths), 8, 1))
    cells[:, :PS + 1, 0] = table.paths
    cells[:, PL, 0] -= np.repeat(table.fspl, table.counts)
    cells[:, DLY, 0] -= np.repeat(table.dist3d / SPEED_OF_LIGHT, table.counts)
    cells[:, DLY, 0] *= DELAY_SCALE
    codec.scaler.scale(cells)
    assert codec.scaler.n_clipped == 0

    matrices, _ = codec.encode(table, substream(8, "padding"))
    dec = codec.decode(matrices, table)
    assert list(dec.state) == list(table.state)
    np.testing.assert_array_equal(dec.counts, table.counts)
    worst = np.abs(dec.paths - table.paths).max(axis=0)
    assert np.all(worst[AOD:] <= 1e-12)
    # each draw's errors with its own codec, as before the angle rows were fixed
    assert worst[PL] == 0.0 and worst[DLY] <= 2.0**-70  # 8.47e-22 s


# -- full encode/decode -----------------------------------------------------------


def decode_stack(codec, matrices, links):
    """The table of matrices[i] decoded against the geometry of links[i]."""
    return codec.decode(matrices, link_table(links))


def geometry_table(tx, rx, carrier_freq):
    """A table of path-less links holding just the given geometry rows."""
    return link_table(link(a, b, f, LinkState.OUTAGE) for a, b, f in zip(tx, rx, carrier_freq))


def decode_one(codec, matrix, link):
    """(LinkState, (k, 7) path rows) of one matrix decoded against link's geometry."""
    dec = decode_stack(codec, np.asarray(matrix)[None], [link])
    return LinkState(dec.state[0]), dec.paths


def float32_bounds(codec):
    """Each path feature's worst error after a float32 cast of its scaled cells.

    A cast moves a cell of [-1, 1] by at most 2**-25, which unscales to
    (hi - lo) * 2**-26 of its scaler row (delay's divided by DELAY_SCALE):
    half of the bound.
    """
    scaler = codec.scaler
    bounds = (scaler.feature_max - scaler.feature_min)[:PS + 1] * 2.0**-25
    bounds[DLY] /= DELAY_SCALE
    return bounds


def path_errors(got, want):
    """|got - want| of (k, 7) path rows; azimuths and phase circularly, as angles."""
    errors = np.abs(got - want)
    turns = errors[:, [AOD, AOA, PS]] % 360.0
    errors[:, [AOD, AOA, PS]] = np.minimum(turns, 360.0 - turns)
    return errors


@pytest.mark.parametrize("feature, value, decoded", [(AOA, -179.999996, 180.0),
                                                     (PS, -359.999996, 0.0)])
def test_angle_next_to_its_lower_end_decodes_from_float32_as_the_upper(codec, feature, value,
                                                                        decoded):
    # the scaled cell is -1 + 2.2e-8, which rounds to float32 -1: the row's
    # lower end, which decode wraps to the upper.  The angle is the same,
    # 4e-6 deg away
    lk = make_link(10)
    lk.paths[3, feature] = value
    matrices, _ = codec.encode(link_table([lk]), substream(19, "x"))
    _, paths = decode_one(codec, matrices[0].astype(np.float32), lk)
    assert paths[3, feature] == decoded
    assert np.all(path_errors(paths, lk.paths).max(axis=0) <= float32_bounds(codec))


def test_roundtrip_surrogate_links(dataset, table, codec):
    matrices, _ = codec.encode(table, substream(12, "roundtrip"))
    dec = codec.decode(matrices, table)
    # the geometry columns are the given table's, not recomputed
    for name in ("ends", "dist2d", "dist3d", "fspl", "los"):
        assert getattr(dec, name) is getattr(table, name), name
    assert dec.state.tolist() == [lk.link_state for lk in dataset]
    np.testing.assert_array_equal(dec.counts, table.counts)  # no virtual survivors
    worst = np.abs(dec.paths - table.paths).max(axis=0)
    assert worst[PL] <= 1e-3
    assert worst[DLY] <= 1e-12
    assert np.all(worst[[AOD, ZOD, AOA, ZOA, PS]] <= 1e-3)


def test_roundtrip_los_first_path_exact(dataset, table, codec):
    matrices, _ = codec.encode(table, substream(13, "los"))
    dec = codec.decode(matrices, table)
    los = table.state == LinkState.LOS
    assert los.any()
    first = table.offsets[:-1][los]
    np.testing.assert_array_equal(dec.paths[first], table.paths[first])


def test_decode_negative_last_row_is_nlos(codec):
    link = make_link(10)
    matrices, _ = codec.encode(link_table([link]), substream(14, "x"))
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
    n = BLOCK + 2
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
    values[DLY] = values[DLY] / DELAY_SCALE + base_delay
    is_los = float(values[LS].mean()) > 0.0
    if is_los:
        values[:PS + 1, 0] = los
    keep = values[PL] <= OUTAGE_THRESHOLD_DB
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


def test_stacked_decode_matches_per_image_reference(codec):
    # wide scaler ranges push decoded values past every physical limit:
    # pathloss <= 0 and > 180 dB, delays before the LOS arrival, azimuths and
    # phases outside their wrap intervals, zeniths outside [0, 180]
    lo = np.array([-300.0, -1e3, -400.0, -60.0, -400.0, -60.0, -800.0, -1.0])
    hi = np.array([300.0, 1e3, 400.0, 240.0, 400.0, 240.0, 300.0, 1.0])
    stacked, single, ref = (with_scaler(codec, lo, hi) for _ in range(3))

    rng = np.random.default_rng(21)
    n = BLOCK + 7  # crosses an internal block boundary
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
    offsets = got.offsets
    assert len(got.paths) == offsets[-1]
    for i, (state, paths) in enumerate(want):  # every bit of every path row
        assert got.state[i] == state and ones[i].state[0] == state
        assert got.paths[offsets[i]:offsets[i + 1]].tobytes() == paths.tobytes()
        assert ones[i].paths.tobytes() == paths.tobytes()
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
    assert dec.counts[0] > 0 and len(dec.paths) == dec.counts[0]
    assert np.all(dec.paths[:, [PL, DLY]] > 0.0) and np.all(np.diff(dec.paths[:, DLY]) >= 0.0)
    for az in (AOD, AOA):
        assert np.all((-180.0 < dec.paths[:, az]) & (dec.paths[:, az] <= 180.0))
    for zen in (ZOD, ZOA):
        assert np.all((0.0 <= dec.paths[:, zen]) & (dec.paths[:, zen] <= 180.0))
    assert np.all((-360.0 < dec.paths[:, PS]) & (dec.paths[:, PS] <= 0.0))


def test_codec_json_roundtrip(codec):
    doc = codec.to_dict()
    back = ChannelImageCodec.from_dict(doc)
    np.testing.assert_array_equal(back.scaler.feature_min, codec.scaler.feature_min)
    np.testing.assert_array_equal(back.scaler.feature_max, codec.scaler.feature_max)
    assert back.virtual_delay == codec.virtual_delay
    # the fitted ranges only: codec.py fixes every other constant and row
    assert list(doc) == ["pathloss", "delay", "virtual_delay"]


def test_encode_images_in_range(dataset, table, codec):
    rng = substream(18, "x")
    for _ in range(2):
        matrices, conds = codec.encode(table, rng)
        assert matrices.shape == (len(dataset), 8, 25)
        assert np.all(matrices >= -1.0) and np.all(matrices <= 1.0)
        for lk, c in zip(dataset, conds):
            assert c[0] == forms(lk.tx, lk.rx, lk.carrier_freq)[0] and c[1] == lk.rx[2]


def test_decode_of_5000_matrices_holds_its_output_once():
    # measured: 3.8 MB, the 1.9 MB output (path rows, counts, states) and one
    # 256-matrix block; 8.4 MB while the output was padded to 25 rows per
    # link, and 13.5 MB while a list of padded blocks was joined
    table = generate_dataset(SurrogateConfig(num_tx=10, num_rx_per_height=100, seed=7))
    assert len(table) == 5000
    codec = fit_codec(table)
    matrices = codec.encode(table, substream(7, "padding"))[0].astype(np.float32)
    output = table.paths.nbytes + 16 * len(table)  # the round trip keeps every path
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        decoded = codec.decode(matrices, table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < output + 3 * 2**20
    assert decoded.paths.flags.c_contiguous and decoded.counts.dtype == np.intp
    assert decoded.state.dtype == np.uint8
