"""Geometry, free-space loss and LOS closed forms."""

import math
import re

import numpy as np
import pytest

from chanimg.core import (
    PATH_FIELDS,
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    LinkTable,
    PathParams,
    closed_forms,
    link_rules,
    padded_paths,
    wrap_azimuth,
    wrap_phase,
)
from chanimg.errors import DataError, GeometryError
from chanimg.surrogate import SurrogateConfig, generate_dataset


def reference_closed_forms(tx, rx, freq):
    """(dist2d, dist3d, fspl, LOS row or None) of one link, with the math module.

    The scalar definition the array forms follow; the row is None where the
    link has no LOS path (vertical, or a pathloss that is not positive).
    """
    dx, dy, dz = tx[0] - rx[0], tx[1] - rx[1], tx[2] - rx[2]
    dist2d = math.hypot(dx, dy)
    dist3d = math.hypot(dist2d, dz)
    fspl = 20.0 * math.log10(dist3d) + 20.0 * math.log10(freq) - 147.55
    if dist2d == 0.0 or not fspl > 0.0:
        return dist2d, dist3d, fspl, None
    delay = dist3d / SPEED_OF_LIGHT
    aod = math.degrees(math.atan2(dy, dx))
    aoa = aod - 180.0 if aod > 0.0 else aod + 180.0
    zod = math.degrees(math.atan2(dist2d, rx[2] - tx[2]))
    cycles = freq * delay
    phase = -360.0 * (cycles - math.floor(cycles)) + 0.0
    return dist2d, dist3d, fspl, (fspl, delay, aod, zod, aoa, 180.0 - zod, phase)


def one(tx, rx, freq=12e9):
    """closed_forms of a single link: (dist2d, dist3d, fspl, los (7,))."""
    d2, d3, pl, los = closed_forms([tx], [rx], [freq])
    return float(d2[0]), float(d3[0]), float(pl[0]), los[0]


def los_path(tx, rx, freq=12e9):
    return PathParams(*one(tx, rx, freq)[3].tolist())


def test_geometry_planar():
    assert one((0, 0, 0), (3, 4, 0))[:2] == (5.0, 5.0)


def test_geometry_vertical():
    d2, d3, _, los = one((0, 0, 0), (0, 0, 10))
    assert d2 == 0.0 and d3 == 10.0


def test_geometry_hand_value():
    d2, d3, _, _ = one((1, 2, 30), (4, 6, 1.6))
    assert d2 == pytest.approx(5.0, rel=1e-12)
    assert d3 == pytest.approx(math.sqrt(25 + 28.4 ** 2), rel=1e-12)


def test_geometry_coincident_raises():
    with pytest.raises(GeometryError, match="link 1: tx and rx coincide"):
        closed_forms([(0, 0, 0), (1, 2, 3)], [(1, 0, 0), (1, 2, 3)], [12e9, 12e9])


def fspl(d, f):
    return one((0.0, 0.0, 0.0), (d, 0.0, 0.0), f)[2]


def test_fspl_hand_value():
    assert fspl(100.0, 12e9) == pytest.approx(94.0336, abs=1e-3)


def test_fspl_unit_arguments():
    assert fspl(1.0, 1.0) == pytest.approx(-147.55, abs=1e-12)


def test_fspl_doubling_distance_adds_6db():
    for d, f in [(10, 1e9), (250, 12e9), (3.7, 28e9)]:
        assert fspl(2 * d, f) - fspl(d, f) == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_fspl_strictly_increasing():
    rng = np.random.default_rng(0)
    d, f = rng.uniform(1, 1e4, 100), rng.uniform(1e8, 1e11, 100)
    zero, rx = np.zeros((100, 3)), np.column_stack([d, np.zeros((100, 2))])
    base = closed_forms(zero, rx, f)[2]
    assert np.all(closed_forms(zero, rx * 1.01, f)[2] > base)
    assert np.all(closed_forms(zero, rx, f * 1.01)[2] > base)


def test_fspl_rejects_nonpositive():
    with pytest.raises(GeometryError, match="coincide"):
        fspl(0.0, 1e9)
    for f in (0.0, -1.0, np.nan):
        with pytest.raises(GeometryError, match="link 0: carrier_freq must be positive"):
            fspl(10.0, f)


def test_los_45_degree_elevation():
    # z_rx - z_tx == dist2d > 0
    p = los_path((0, 0, 0), (30, 40, 50))
    assert p.zod == pytest.approx(45.0, abs=1e-12)
    assert p.zoa == pytest.approx(135.0, abs=1e-12)


def test_los_exact_delay_and_zero_phase():
    # dist3d of 299.792458 m makes the delay exactly 1 microsecond
    p = los_path((0, 0, 0), (299.792458, 0, 0))
    assert p.delay == 1e-6
    assert p.phase == 0.0


def random_links(seed, n, low, high):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, (n, 3)), rng.uniform(low, high, (n, 3)), rng


def test_los_phase_in_range():
    tx, rx, rng = random_links(1, 300, 0, 500)
    los = closed_forms(tx, rx, rng.uniform(1e9, 30e9, 300))[3]
    assert np.all((-360.0 < los[:, 6]) & (los[:, 6] <= 0.0))


def test_los_aoa_is_aod_back_direction():
    p = los_path((0, 10, 5), (0, 0, 1.6))  # aod = +90
    assert p.aod == pytest.approx(90.0)
    assert p.aoa == pytest.approx(-90.0)


def test_los_angle_identities_exact():
    tx, rx, _ = random_links(2, 500, -200, 200)
    _, _, _, los = closed_forms(tx, rx, np.full(500, 12e9))
    aod, zod, aoa, zoa = los[:, 2], los[:, 3], los[:, 4], los[:, 5]
    assert np.all(zoa + zod == 180.0)
    assert np.all(np.abs(aoa - aod) == 180.0)  # the -180 shift, mod 360
    assert np.all((-180.0 < aod) & (aod <= 180.0) & (-180.0 < aoa) & (aoa <= 180.0))


def test_los_delay_times_c_is_dist3d():
    tx, rx, _ = random_links(3, 200, 0, 1000)
    _, d3, _, los = closed_forms(tx, rx, np.full(200, 6e9))
    np.testing.assert_allclose(los[:, 1] * SPEED_OF_LIGHT, d3, rtol=1e-12)


def test_los_equal_heights_gives_horizon():
    p = los_path((0, 0, 10), (100, 0, 10))
    assert p.zod == 90.0
    assert p.zoa == 90.0


def test_los_vertical_link_rejected():
    # no azimuth, so no LOS path: the row is NaN, the distances are not
    d2, d3, pl, los = one((0, 0, 0), (0, 0, 10))
    assert np.isnan(los).all() and (d2, d3) == (0.0, 10.0) and pl == fspl(10.0, 12e9)


# The array forms round differently from the scalar ones in the last bits.
# Over the seed-7 and seed-9 surrogate grids (5,000 links each, 12 GHz) the
# largest differences from reference_closed_forms are these; they bound the
# comparison below, which runs on part of the same grids.
CLOSED_FORM_TOL = {"dist": 1.2e-13, "pathloss": 2.9e-14, "delay": 4.3e-22,
                   "angle": 2.9e-14, "phase": 2.7e-9}


def check_against_reference(table):
    tol = CLOSED_FORM_TOL
    row_tol = np.array([tol["pathloss"], tol["delay"], *[tol["angle"]] * 4, tol["phase"]])
    for i, (tx, rx, f) in enumerate(zip(table.tx.tolist(), table.rx.tolist(),
                                        table.carrier_freq.tolist())):
        d2, d3, pl, los = reference_closed_forms(tx, rx, f)
        assert abs(table.dist2d[i] - d2) <= tol["dist"]
        assert abs(table.dist3d[i] - d3) <= tol["dist"]
        assert abs(table.fspl[i] - pl) <= tol["pathloss"]
        if los is None:
            assert np.isnan(table.los[i]).all()
        else:
            assert np.all(np.abs(table.los[i] - los) <= row_tol), (i, table.los[i] - los)


def test_closed_forms_of_a_row_do_not_depend_on_the_table():
    tx, rx, rng = random_links(4, 2000, 0, 500)
    freq = rng.uniform(1e9, 30e9, 2000)
    rx[::50, :2] = tx[::50, :2]  # vertical links
    freq[7::50] = 1.0  # LOS pathloss below 0 dB
    full = closed_forms(tx, rx, freq)
    assert np.isnan(full[3][::50]).all() and np.isnan(full[3][7::50]).all()
    perm = rng.permutation(2000)
    for got, want in zip(closed_forms(tx[perm], rx[perm], freq[perm]), full):
        assert got.tobytes() == want[perm].tobytes()
    for i in range(0, 2000, 37):
        for got, want in zip(closed_forms(tx[i:i + 1], rx[i:i + 1], freq[i:i + 1]), full):
            assert got.tobytes() == want[i:i + 1].tobytes()


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


def _edit_path(field, value, k=0):
    def edit(link):
        link["paths"][k][PATH_FIELDS.index(field)] = value
    return edit


@pytest.mark.parametrize("edit", [
    None, _edit_path("pathloss", math.nan), _edit_path("pathloss", -1.0),
    _edit_path("delay", 0.0), _edit_path("aod", math.inf), _edit_path("aoa", -math.inf),
    _edit_path("zod", 181.0), _edit_path("zoa", -0.1), _edit_path("phase", 1.0),
    _edit_path("phase", -360.0), _edit_path("delay", 3e-6, k=0),
    lambda link: link.update(tx=(0.0, math.nan, 10.0)),
    lambda link: link.update(carrier_freq=0.0),
    lambda link: link.update(paths=[]),
    lambda link: link.update(paths=[], link_state=LinkState.OUTAGE),
    lambda link: link.update(paths=[[100.0, (i + 1) * 1e-6, 0.0, 90.0, 0.0, 90.0, -5.0]
                                    for i in range(26)]),
], ids=["valid", "pathloss-nan", "pathloss-neg", "delay-zero", "aod-inf", "aoa-inf",
        "zod-181", "zoa-neg", "phase-pos", "phase-360", "unsorted", "tx-nan", "freq-zero",
        "nlos-without-paths", "outage-without-paths", "26-paths"])
def test_link_rules_are_the_scalar_rules(edit):
    # the array rules (read_table) and the scalar ones (PathParams and
    # LinkRecord) reject the same links, for the same first reason
    link = dict(tx=(0.0, 0.0, 10.0), rx=(50.0, 0.0, 1.6), carrier_freq=12e9,
                link_state=LinkState.NLOS,
                paths=[[100.0, 1e-6, 10.0, 90.0, -170.0, 90.0, -5.0],
                       [110.0, 2e-6, 20.0, 80.0, -160.0, 100.0, -50.0]])
    if edit:
        edit(link)
    try:
        LinkRecord(link["tx"], link["rx"], link["carrier_freq"], link["link_state"],
                   [PathParams(*p) for p in link["paths"]])
        scalar = None
    except ValueError as exc:
        scalar = str(exc)
    counts = np.array([len(link["paths"])])
    flagged = [message for message, mask in link_rules(
        padded_paths(np.array(link["paths"], dtype=float).reshape(-1, 7), counts), counts,
        np.array([link["link_state"]], dtype=object), np.array([link["tx"]]),
        np.array([link["rx"]]), np.array([link["carrier_freq"]])) if mask[0]]
    assert (scalar is None) == (not flagged)
    if flagged:  # the scalar message also gives the value; both name the rule
        rule = re.sub(r"(, got|:) \S+$", "", scalar)
        assert set(re.findall(r"\w+", rule)) <= set(re.findall(r"\w+", flagged[0])), rule


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
        assert table.height[i] == lk.rx[2] and tuple(table.tx[i]) == lk.tx
        assert table.carrier_freq[i] == lk.carrier_freq
    check_against_reference(table)
    assert np.isnan(table.los[1:3]).all() and table.fspl[2] < 0.0
    assert not np.isnan(table.los[[0, 3]]).any()
    for seed in (7, 9):
        check_against_reference(
            generate_dataset(SurrogateConfig(num_rx_per_height=20, seed=seed)))
    sub = table.take([3, 0])
    assert sub.counts.tolist() == [0, 2] and sub.height.tolist() == [60.0, 1.6]


def test_link_table_rejects_empty_and_coincident_datasets():
    with pytest.raises(DataError, match="empty"):
        LinkTable.from_links([])
    ok = LinkRecord((0, 0, 30), (120, 40, 1.6), 12e9, LinkState.OUTAGE, [])
    same = LinkRecord((1, 2, 3), (1, 2, 3), 12e9, LinkState.OUTAGE, [])
    with pytest.raises(GeometryError, match="link 2: tx and rx coincide"):
        LinkTable.from_links([ok, ok, same])
