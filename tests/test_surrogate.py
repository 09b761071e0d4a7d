"""Surrogate dataset generator: determinism, invariants, qualitative trends."""

import numpy as np
import pytest

from chanimg.core import SPEED_OF_LIGHT, LinkState, LinkTable
from chanimg.errors import DataError, GeometryError
from chanimg.surrogate import SurrogateConfig, generate_dataset, train_test_split


def small_config(**kw):
    base = dict(num_tx=5, num_rx_per_height=20, seed=42)
    base.update(kw)
    return SurrogateConfig(**base)


def test_same_seed_same_dataset():
    a = generate_dataset(small_config())
    b = generate_dataset(small_config())
    assert len(a) == len(b) == 500
    for la, lb in zip(a, b):
        assert la.tx == lb.tx and la.rx == lb.rx
        assert la.link_state is lb.link_state
        assert [p.as_array().tolist() for p in la.paths] == \
               [p.as_array().tolist() for p in lb.paths]


def test_different_seed_differs():
    a = generate_dataset(small_config())
    b = generate_dataset(small_config(seed=43))
    assert any(la.tx != lb.tx or la.n_paths != lb.n_paths for la, lb in zip(a, b))


def test_forced_los():
    links = generate_dataset(small_config(los_probability=1.0))
    assert all(lk.link_state is LinkState.LOS for lk in links)
    # first path bit-exact equal to the closed form of the link's table row
    expect = LinkTable.from_links(links).los
    assert [lk.paths[0].as_array().tolist() for lk in links] == expect.tolist()


def test_forced_nlos():
    links = generate_dataset(small_config(los_probability=0.0))
    assert all(lk.link_state in (LinkState.NLOS, LinkState.OUTAGE) for lk in links)


def test_path_invariants():
    links = generate_dataset(small_config())
    table = LinkTable.from_links(links)
    for lk, d3, base_pl in zip(links, table.dist3d, table.fspl):
        assert 1 <= lk.n_paths <= 25
        base_dly = d3 / SPEED_OF_LIGHT
        for p in lk.paths:
            assert p.delay >= base_dly  # no negative excess delay
            assert p.pathloss >= base_pl - 1e-9  # no gain below free space
            assert -360.0 < p.phase <= 0.0
        delays = [p.delay for p in lk.paths]
        assert delays == sorted(delays)


def test_los_first_path_exact():
    links = generate_dataset(small_config())
    table = LinkTable.from_links(links)
    los = [i for i, lk in enumerate(links) if lk.link_state is LinkState.LOS]
    assert los
    for i in los:
        np.testing.assert_array_equal(links[i].paths[0].as_array(), table.los[i])


def test_phase_uniformity():
    links = generate_dataset(small_config(num_rx_per_height=100))
    phases = np.array([p.phase for lk in links for p in lk.paths])
    hist, _ = np.histogram(phases, bins=8, range=(-360.0, 0.0))
    assert hist.min() > 0.7 * hist.mean()


def test_los_fraction_increases_with_height():
    links = generate_dataset(small_config(num_rx_per_height=200))
    frac = {}
    for h in (1.6, 120.0):
        sel = [lk for lk in links if lk.rx[2] == h]
        assert len(sel) >= 1000
        frac[h] = np.mean([lk.link_state is LinkState.LOS for lk in sel])
    assert frac[120.0] > frac[1.6]


@pytest.mark.parametrize("freq", [1e3, 1.0])
def test_low_carrier_without_a_los_path_is_rejected(freq):
    # free-space loss at 1 kHz is below 0 dB over the whole 500 m area
    with pytest.raises(GeometryError, match=r"^link 0: LOS pathloss -\d.* dB is not positive"):
        generate_dataset(small_config(carrier_freq=freq))


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
    links = generate_dataset(small_config())
    train, test = train_test_split(links, 0.2, seed=5)
    assert len(train) + len(test) == len(links)
    assert len(test) == round(0.2 * len(links))
    train2, test2 = train_test_split(links, 0.2, seed=5)
    assert [id(x) for x in train] == [id(x) for x in train2]
    with pytest.raises(DataError):
        train_test_split(links, 1.5, seed=0)
