"""Evaluation metrics against scipy oracles and hand-computed values."""

import numpy as np
import pytest
from scipy import stats as sps

from chanimg.core import LinkRecord, LinkState, LinkTable, PathParams, closed_forms
from chanimg.errors import DataError
from chanimg.stats import (
    BinnedPdf2D,
    Ecdf,
    ks_statistic,
    ks_uniform,
    link_state_prob,
    relative_zenith_pdf,
    rms_spread_report,
    uniformity_check,
)


def make_path(pathloss, delay=1e-6, aod=0.0, zod=90.0, aoa=180.0, zoa=90.0, phase=-5.0):
    return PathParams(pathloss, delay, aod, zod, aoa, zoa, phase)


def make_link(state=LinkState.NLOS, paths=None, rx_h=1.6, dist=100.0):
    paths = paths or [make_path(100.0)]
    return LinkRecord((0.0, 0.0, 30.0), (dist, 0.0, rx_h), 12e9, state, paths)


def los_params(tx, rx, freq):
    """The closed-form LOS path of one link."""
    return PathParams(*closed_forms([tx], [rx], [freq])[3][0].tolist())


def rms_spread(paths, feature):
    """The RMS spread of one link's paths, through rms_spread_report."""
    return float(getattr(rms_spread_report(LinkTable.from_links([make_link(paths=paths)])),
                         feature)[0])


# -- ecdf / KS ---------------------------------------------------------------


def test_ecdf_monotone_0_to_1():
    rng = np.random.default_rng(0)
    f = Ecdf(rng.normal(size=500))
    grid = np.linspace(-5, 5, 1001)
    vals = f(grid)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= 0)


def test_ecdf_right_continuous():
    f = Ecdf([1.0, 2.0, 2.0, 3.0])
    assert f(2.0) == 0.75
    assert f(1.999999) == 0.25


def test_ecdf_empty_rejected():
    with pytest.raises(DataError):
        Ecdf([])


def test_ks_identical_zero():
    x = np.arange(10.0)
    assert ks_statistic(x, x) == 0.0


def test_ks_disjoint_one():
    assert ks_statistic([0.0], [1.0]) == 1.0


def test_ks_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=rng.integers(5, 400))
        b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(5, 400))
        assert ks_statistic(a, b) == pytest.approx(
            sps.ks_2samp(a, b, method="asymp").statistic, abs=1e-12)


def test_ks_split_halves_calibration():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=10_000)
    assert ks_statistic(x[:5000], x[5000:]) < 0.05


def test_ks_uniform_matches_scipy():
    rng = np.random.default_rng(3)
    for lo, hi in [(-180.0, 180.0), (-360.0, 0.0), (0.0, 1.0)]:
        x = rng.uniform(lo, hi, size=257)
        ours = ks_uniform(x, lo, hi)
        ref = sps.kstest(x, sps.uniform(loc=lo, scale=hi - lo).cdf).statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_uniform_exact_grid():
    n = 100
    grid = (np.arange(n) + 0.5) / n * 360.0 - 360.0  # U(-360, 0] midpoints
    assert ks_uniform(grid, -360.0, 0.0) == pytest.approx(1 / (2 * n), abs=1e-12)


def test_uniformity_check_degenerate_sample():
    assert uniformity_check(np.full(50, -90.0), "aoa") > 0.7


def test_uniformity_check_kinds():
    rng = np.random.default_rng(4)
    n = 20_000
    az = rng.uniform(-180, 180, n)
    ph = -rng.uniform(0, 360, n)
    assert uniformity_check(az, "aod") < 0.02
    assert uniformity_check(ph, "phase") < 0.02
    for kind in ("zod", "azimuth", "ps"):  # the old aliases are gone
        with pytest.raises(DataError, match=f"unknown uniformity kind: {kind}"):
            uniformity_check(az, kind)


# -- link state probability ----------------------------------------------------


def test_link_state_prob_all_los():
    links = [make_link(LinkState.LOS, dist=d) for d in (10, 60, 110)]
    out = link_state_prob(LinkTable.from_links(links), 1.6, [0, 50, 100, 150])
    np.testing.assert_array_equal(out.counts, [1, 1, 1])
    assert np.all(out.p_los[out.occupied] == 1.0)
    assert np.all(out.p_outage[out.occupied] == 0.0)


def test_link_state_prob_single_outage_bin():
    links = [make_link(LinkState.OUTAGE,
                       paths=[make_path(185.0)], dist=75.0)]
    out = link_state_prob(LinkTable.from_links(links), 1.6, [0, 50, 100])
    assert out.counts.tolist() == [0, 1]
    assert np.isnan(out.p_los[0])  # empty bin absent, not zero
    assert out.p_outage[1] == 1.0
    assert out.p_los[1] + out.p_outage[1] <= 1.0


def test_link_state_prob_filters_height():
    links = [make_link(LinkState.LOS, rx_h=1.6), make_link(LinkState.NLOS, rx_h=30.0)]
    out = link_state_prob(LinkTable.from_links(links), 1.6, [0, 200])
    assert out.counts.sum() == 1 and out.p_los[0] == 1.0


# -- relative zenith PDFs ---------------------------------------------------------


def test_relative_zenith_pure_los_mass_at_zero():
    links = []
    for d in (40.0, 120.0, 260.0):
        tx, rx = (0.0, 0.0, 30.0), (d, 0.0, 1.6)
        links.append(LinkRecord(tx, rx, 12e9, LinkState.LOS,
                                [los_params(tx, rx, 12e9)]))
    pdf = relative_zenith_pdf(LinkTable.from_links(links), 1.6, [0, 100, 200, 300],
                              np.arange(-91, 92, 2.0))
    zero_bin = np.searchsorted(pdf.angle_edges, 0.0, side="right") - 1
    for j in range(3):
        assert pdf.density[zero_bin, j] == 1.0
    assert pdf.density.sum() == pytest.approx(3.0)


def test_relative_zenith_offset_path():
    tx, rx = (0.0, 0.0, 30.0), (100.0, 0.0, 1.6)
    ref = los_params(tx, rx, 12e9)
    p = make_path(120.0, zod=ref.zod + 10.0)
    links = [LinkRecord(tx, rx, 12e9, LinkState.NLOS, [p])]
    pdf = relative_zenith_pdf(LinkTable.from_links(links), 1.6, [0, 200], np.arange(-90, 91, 2.0))
    centers = 0.5 * (pdf.angle_edges[:-1] + pdf.angle_edges[1:])
    hot = np.flatnonzero(pdf.density[:, 0])
    assert len(hot) == 1 and abs(centers[hot[0]] - 10.0) <= 1.0


def test_relative_zenith_skips_outage():
    links = [make_link(LinkState.OUTAGE, paths=[make_path(185.0)])]
    pdf = relative_zenith_pdf(LinkTable.from_links(links), 1.6, [0, 200], np.arange(-90, 91, 2.0))
    assert pdf.density.sum() == 0.0


def test_relative_zenith_skips_and_counts_vertical_links():
    tx = (0.0, 0.0, 30.0)
    vertical = LinkRecord(tx, (0.0, 0.0, 1.6), 12e9, LinkState.NLOS, [make_path(120.0)])
    slanted = LinkRecord(tx, (100.0, 0.0, 1.6), 12e9, LinkState.NLOS, [make_path(120.0)])
    table = LinkTable.from_links([vertical, slanted, vertical])
    pdf = relative_zenith_pdf(table, 1.6, [0, 200], np.arange(-90, 91, 2.0), angle="zoa")
    assert pdf.skipped_links == 2
    assert pdf.density.sum() == pytest.approx(1.0)  # the slanted link alone


def test_binned_pdf_columns_sum_to_one_or_zero():
    rng = np.random.default_rng(5)
    links = []
    for _ in range(100):
        d = rng.uniform(10, 400)
        tx, rx = (0.0, 0.0, 30.0), (d, 0.0, 1.6)
        ref = los_params(tx, rx, 12e9)
        paths = [make_path(100.0 + i, zod=np.clip(ref.zod + rng.normal(0, 8), 0, 180))
                 for i in range(rng.integers(1, 6))]
        links.append(LinkRecord(tx, rx, 12e9, LinkState.NLOS, paths))
    pdf = relative_zenith_pdf(LinkTable.from_links(links), 1.6, np.arange(0, 500, 50.0),
                              np.arange(-90, 91, 2.0))
    sums = pdf.density.sum(axis=0)
    assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))


def test_column_spread():
    edges = np.array([-3.0, -1.0, 1.0, 3.0])
    density = np.array([[0.5, 0.0], [0.0, 1.0], [0.5, 0.0]])
    pdf = BinnedPdf2D(np.array([0.0, 1.0, 2.0]), edges, density)
    np.testing.assert_allclose(pdf.column_spread(), [2.0, 0.0])


# -- RMS spreads -------------------------------------------------------------------


def test_rms_single_path_zero():
    assert rms_spread([make_path(100.0)], "delay") == 0.0
    assert rms_spread([make_path(100.0)], "aoa") == 0.0


def test_rms_two_equal_gain_points():
    paths = [make_path(100.0, delay=1e-6 + 0.0), make_path(100.0, delay=1e-6 + 2.0)]
    assert rms_spread(paths, "delay") == pytest.approx(1.0, rel=1e-12)


def test_rms_hand_weighted_value():
    # d = {0,1,2} with gains {1,2,1}: mean 1, rms sqrt(0.5)
    pl = -10.0 * np.log10([1.0, 2.0, 1.0])
    pl -= pl.min() - 100.0  # shift positive; scaling invariance puts gains at 1,2,1
    paths = [make_path(pl[i], zod=d) for i, d in enumerate([0.0, 1.0, 2.0])]
    assert rms_spread(paths, "zod") == pytest.approx(np.sqrt(0.5), rel=1e-9)


def test_rms_bruteforce_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = rng.integers(1, 25)
        pl = rng.uniform(80, 160, n)
        vals = rng.uniform(0, 180, n)
        paths = [make_path(pl[i], zoa=vals[i]) for i in range(n)]
        got = rms_spread(paths, "zoa")
        p = 10 ** (-pl / 10)
        num = den = 0.0
        for k in range(n):  # double loop, straight from the definition
            den += p[k]
            num += vals[k] * p[k]
        mean = num / den
        acc = 0.0
        for k in range(n):
            acc += (vals[k] - mean) ** 2 * p[k]
        want = np.sqrt(acc / den)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_rms_gain_scaling_invariance():
    # integer dB values keep the +30 dB shift (a uniform x1e-3 gain scale)
    # exactly representable, so the spreads must match bit for bit
    rng = np.random.default_rng(7)
    delays = np.sort(1e-6 + rng.uniform(0, 1e-6, 10))
    pl = rng.integers(90, 140, 10).astype(float)
    a = [make_path(pl[i], delay=delays[i]) for i in range(10)]
    b = [make_path(pl[i] + 30.0, delay=delays[i]) for i in range(10)]
    assert rms_spread(a, "delay") == rms_spread(b, "delay")


def test_rms_delay_offset_invariance():
    # dyadic delays and offset make every shifted delay exact in float64
    rng = np.random.default_rng(8)
    delays = np.sort(rng.integers(1, 2 ** 20, 8).astype(float)) * 2.0 ** -30
    pl = rng.uniform(90, 140, 8)
    a = [make_path(pl[i], delay=delays[i]) for i in range(8)]
    b = [make_path(pl[i], delay=delays[i] + 2.0 ** -8) for i in range(8)]
    assert rms_spread(a, "delay") == rms_spread(b, "delay")


def test_rms_azimuth_seam_safety():
    # two equal-gain paths straddling +/-180: true spread is 5 deg, not ~175
    paths = [make_path(100.0, aoa=175.0), make_path(100.0, aoa=-175.0)]
    assert rms_spread(paths, "aoa") == pytest.approx(5.0, abs=1e-9)


def reference_rms(paths, feature):
    """Per-link gain-weighted RMS spread with 1D sums and dot products."""
    pl = np.array([p.pathloss for p in paths])
    d = np.array([getattr(p, feature) for p in paths])
    gains = 10.0 ** (-(pl - pl.min()) / 10.0)
    if feature == "delay":
        d = d - d.min()
    elif feature in ("aoa", "aod"):
        rad = np.radians(d)
        mean = np.degrees(np.arctan2(np.sum(gains * np.sin(rad)), np.sum(gains * np.cos(rad))))
        d = mean + (d - mean + 180.0) % 360.0 - 180.0
    w = gains / gains.sum()
    mean = np.dot(w, d)
    return float(np.sqrt(np.dot(w, (d - mean) ** 2)))


def test_rms_report_matches_per_link_reference():
    rng = np.random.default_rng(9)
    # an outage link without paths is left out of the report
    links = [LinkRecord((0.0, 0.0, 30.0), (50.0, 0.0, 1.6), 12e9, LinkState.OUTAGE, [])]
    for i in range(300):
        n = 1 if i % 10 == 0 else int(rng.integers(2, 26))
        # every third link straddles the +/-180 azimuth seam
        az = (rng.uniform(170.0, 190.0, n) if i % 3 == 0 else rng.uniform(-180.0, 180.0, n))
        az = np.where(az > 180.0, az - 360.0, az)
        paths = [make_path(rng.uniform(80, 170), delay=d, aod=az[j], zod=rng.uniform(0, 180),
                           aoa=-az[j], zoa=rng.uniform(0, 180))
                 for j, d in enumerate(np.sort(rng.uniform(1e-7, 2e-6, n)))]
        links.append(make_link(paths=paths))
    rep = rms_spread_report(LinkTable.from_links(links))
    for f in ("delay", "aoa", "aod", "zoa", "zod"):
        want = np.array([reference_rms(lk.paths, f) for lk in links[1:]])
        got = getattr(rep, f)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.all(got[::10] == 0.0)  # single-path links
        assert got.tolist() == [rms_spread(lk.paths, f) for lk in links[1:]]
    assert np.all(rep.aoa[3::3] < 10.0)  # seam links keep a small azimuth spread


def test_rms_report_shapes():
    links = [make_link(paths=[make_path(100.0), make_path(110.0, delay=2e-6)]),
             make_link()]
    rep = rms_spread_report(LinkTable.from_links(links))
    for f in ("delay", "aoa", "aod", "zoa", "zod"):
        assert getattr(rep, f).shape == (2,)
        assert np.all(getattr(rep, f) >= 0.0)
