"""Geometry, free-space loss and LOS closed forms."""

import math

import numpy as np
import pytest

from chanimg.core import (
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    LinkTable,
    PathParams,
    fspl,
    geometry,
    los_params,
    verify_los_first_path,
    wrap_azimuth,
    wrap_phase,
)
from chanimg.errors import DataError, GeometryError


def test_geometry_planar():
    assert geometry((0, 0, 0), (3, 4, 0)) == (5.0, 5.0)


def test_geometry_vertical():
    d2, d3 = geometry((0, 0, 0), (0, 0, 10))
    assert d2 == 0.0 and d3 == 10.0


def test_geometry_hand_value():
    d2, d3 = geometry((1, 2, 30), (4, 6, 1.6))
    assert d2 == pytest.approx(5.0, rel=1e-12)
    assert d3 == pytest.approx(math.sqrt(25 + 28.4 ** 2), rel=1e-12)


def test_geometry_coincident_raises():
    with pytest.raises(GeometryError):
        geometry((1, 2, 3), (1, 2, 3))


def test_fspl_hand_value():
    assert fspl(100.0, 12e9) == pytest.approx(94.0336, abs=1e-3)


def test_fspl_unit_arguments():
    assert fspl(1.0, 1.0) == pytest.approx(-147.55, abs=1e-12)


def test_fspl_doubling_distance_adds_6db():
    for d, f in [(10, 1e9), (250, 12e9), (3.7, 28e9)]:
        assert fspl(2 * d, f) - fspl(d, f) == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_fspl_strictly_increasing():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d, f = rng.uniform(1, 1e4), rng.uniform(1e8, 1e11)
        assert fspl(d * 1.01, f) > fspl(d, f)
        assert fspl(d, f * 1.01) > fspl(d, f)


def test_fspl_rejects_nonpositive():
    with pytest.raises(GeometryError):
        fspl(0.0, 1e9)
    with pytest.raises(GeometryError):
        fspl(10.0, -1.0)


def test_los_45_degree_elevation():
    # z_rx - z_tx == dist2d > 0
    p = los_params((0, 0, 0), (30, 40, 50), 12e9)
    assert p.zod == pytest.approx(45.0, abs=1e-12)
    assert p.zoa == pytest.approx(135.0, abs=1e-12)


def test_los_exact_delay_and_zero_phase():
    # dist3d of 299.792458 m makes the delay exactly 1 microsecond
    p = los_params((0, 0, 0), (299.792458, 0, 0), 12e9)
    assert p.delay == 1e-6
    assert p.phase == 0.0


def test_los_phase_in_range():
    rng = np.random.default_rng(1)
    for _ in range(300):
        tx = tuple(rng.uniform(0, 500, 3))
        rx = tuple(rng.uniform(0, 500, 3))
        p = los_params(tx, rx, rng.uniform(1e9, 30e9))
        assert -360.0 < p.phase <= 0.0


def test_los_aoa_is_aod_back_direction():
    p = los_params((0, 10, 5), (0, 0, 1.6), 12e9)  # aod = +90
    assert p.aod == pytest.approx(90.0)
    assert p.aoa == pytest.approx(-90.0)


def test_los_angle_identities_exact():
    rng = np.random.default_rng(2)
    for _ in range(500):
        tx = tuple(rng.uniform(-200, 200, 3))
        rx = tuple(rng.uniform(-200, 200, 3))
        if (tx[0], tx[1]) == (rx[0], rx[1]):
            continue
        p = los_params(tx, rx, 12e9)
        assert p.zoa + p.zod == 180.0
        assert abs(p.aoa - p.aod) == 180.0  # the -180 shift, mod 360
        assert -180.0 < p.aod <= 180.0
        assert -180.0 < p.aoa <= 180.0


def test_los_delay_times_c_is_dist3d():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tx = tuple(rng.uniform(0, 1000, 3))
        rx = tuple(rng.uniform(0, 1000, 3))
        _, d3 = geometry(tx, rx)
        p = los_params(tx, rx, 6e9)
        assert p.delay * SPEED_OF_LIGHT == pytest.approx(d3, rel=1e-12)


def test_los_equal_heights_gives_horizon():
    p = los_params((0, 0, 10), (100, 0, 10), 12e9)
    assert p.zod == 90.0
    assert p.zoa == 90.0


def test_los_vertical_link_rejected():
    with pytest.raises(GeometryError):
        los_params((0, 0, 0), (0, 0, 10), 12e9)


def test_wrap_helpers():
    assert wrap_azimuth(190.0) == -170.0
    assert wrap_azimuth(-180.0) == 180.0
    assert wrap_azimuth(180.0) == 180.0
    assert wrap_phase(10.0) == -350.0
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(-360.0) == 0.0
    arr = wrap_azimuth(np.array([540.0, -270.0]))
    np.testing.assert_allclose(arr, [180.0, 90.0])


def test_pathparams_validation():
    ok = dict(pathloss=100.0, delay=1e-6, aod=10.0, zod=90.0, aoa=-170.0, zoa=90.0, phase=-10.0)
    PathParams(**ok)
    for bad in [dict(pathloss=-1.0), dict(delay=0.0), dict(zod=181.0),
                dict(zoa=-0.1), dict(phase=1.0), dict(phase=-360.0)]:
        with pytest.raises(ValueError):
            PathParams(**{**ok, **bad})


def test_linkrecord_validation():
    p = PathParams(100.0, 1e-6, 0.0, 90.0, 180.0, 90.0, -5.0)
    q = PathParams(110.0, 2e-6, 0.0, 90.0, 180.0, 90.0, -5.0)
    LinkRecord((0, 0, 10), (50, 0, 1.6), 12e9, LinkState.NLOS, [p, q])
    with pytest.raises(ValueError):  # unsorted delays
        LinkRecord((0, 0, 10), (50, 0, 1.6), 12e9, LinkState.NLOS, [q, p])
    with pytest.raises(ValueError):  # zero paths only for outage
        LinkRecord((0, 0, 10), (50, 0, 1.6), 12e9, LinkState.NLOS, [])
    LinkRecord((0, 0, 10), (50, 0, 1.6), 12e9, LinkState.OUTAGE, [])
    with pytest.raises(ValueError):  # too many paths
        LinkRecord((0, 0, 10), (50, 0, 1.6), 12e9, LinkState.NLOS,
                   [PathParams(100.0, (i + 1) * 1e-6, 0.0, 90.0, 0.0, 90.0, -5.0)
                    for i in range(26)])


def test_verify_los_first_path():
    tx, rx, f = (0, 0, 30), (120, 40, 1.6), 12e9
    los = los_params(tx, rx, f)
    link = LinkRecord(tx, rx, f, LinkState.LOS, [los])
    assert verify_los_first_path(link)
    bad = PathParams(los.pathloss + 1.0, los.delay, los.aod, los.zod,
                     los.aoa, los.zoa, los.phase)
    link2 = LinkRecord(tx, rx, f, LinkState.LOS, [bad])
    assert not verify_los_first_path(link2)


def test_link_table_rows_are_the_scalar_closed_forms():
    p = PathParams(120.0, 1e-6, 10.0, 80.0, -170.0, 100.0, -5.0)
    links = [
        LinkRecord((0, 0, 30), (120, 40, 1.6), 12e9, LinkState.NLOS, [p, p]),
        LinkRecord((5, 5, 30), (5, 5, 1.6), 28e9, LinkState.LOS, [p]),  # vertical
        LinkRecord((0, 0, 30), (100, 0, 1.6), 1.0, LinkState.NLOS, [p]),  # LOS pathloss < 0
        LinkRecord((0, 0, 30), (-50, 10, 60.0), 3.5e9, LinkState.OUTAGE, []),
    ]
    table = LinkTable.from_links(links)
    assert len(table) == 4 and table.counts.tolist() == [2, 1, 1, 0]
    np.testing.assert_array_equal(table.paths[0, :2], [p.as_array()] * 2)
    assert not table.paths[0, 2:].any() and not table.paths[3].any()
    assert list(table.state) == [lk.link_state for lk in links]
    for i, lk in enumerate(links):
        d2, d3 = geometry(lk.tx, lk.rx)
        assert (table.dist2d[i], table.dist3d[i]) == (d2, d3)
        assert table.fspl[i] == fspl(d3, lk.carrier_freq)
        assert table.height[i] == lk.rx[2] and tuple(table.tx[i]) == lk.tx
        assert table.carrier_freq[i] == lk.carrier_freq
    for i in (0, 3):
        lk = links[i]
        np.testing.assert_array_equal(table.los[i],
                                      los_params(lk.tx, lk.rx, lk.carrier_freq).as_array())
    assert np.isnan(table.los[1:3]).all() and table.fspl[2] < 0.0
    sub = table.take([3, 0])
    assert sub.counts.tolist() == [0, 2] and sub.height.tolist() == [60.0, 1.6]


def test_link_table_rejects_empty_and_coincident_datasets():
    with pytest.raises(DataError, match="empty"):
        LinkTable.from_links([])
    ok = LinkRecord((0, 0, 30), (120, 40, 1.6), 12e9, LinkState.OUTAGE, [])
    same = LinkRecord((1, 2, 3), (1, 2, 3), 12e9, LinkState.OUTAGE, [])
    with pytest.raises(GeometryError, match="link 2: tx and rx coincide"):
        LinkTable.from_links([ok, ok, same])
