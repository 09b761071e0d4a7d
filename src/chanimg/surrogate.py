"""Parametric stochastic generator of link datasets.

Stands in for a ray-tracing simulation: transmitters sit on rooftops,
receivers are dropped at a set of discrete heights, and the multipath
parameters of each link are drawn from simple parametric distributions.

The distributions here are stand-ins, NOT fitted to any measured or
ray-traced data.  They are chosen only to reproduce the qualitative trends
a dense-urban simulation shows: line-of-sight gets more likely at higher
receiver altitudes, scattering (path count and angular spread) thins out
with distance, and excess pathloss grows slowly with excess delay.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_PATHS,
    LinkRecord,
    LinkState,
    PathParams,
    closed_forms,
    wrap_azimuth,
)
from .errors import DataError, GeometryError
from .rng import substream

__all__ = ["SurrogateConfig", "generate_dataset", "train_test_split"]

DEFAULT_HEIGHTS = (1.6, 30.0, 60.0, 90.0, 120.0)


@dataclass
class SurrogateConfig:
    """Knobs of the stochastic link generator.

    Total dataset size is num_tx * num_rx_per_height * len(heights).
    Defaults give 5,000 links at 12 GHz in a 500 m x 500 m area.
    """

    num_tx: int = 10
    num_rx_per_height: int = 100
    heights: tuple = DEFAULT_HEIGHTS
    area: tuple = (500.0, 500.0)
    carrier_freq: float = 12e9
    seed: int = 0
    max_paths: int = MAX_PATHS
    outage_threshold_db: float = 180.0

    # LOS probability: exp(-dist2d / (base + per_height * h)), or a fixed override
    los_probability: float | None = None
    los_scale_base_m: float = 50.0
    los_scale_per_height: float = 3.0

    # scattered-path count: 1 + Poisson(rate_base * exp(-dist2d / rate_decay))
    path_rate_base: float = 12.0
    path_rate_decay_m: float = 300.0

    # scattered-path parameter spreads
    excess_delay_mean_s: float = 200e-9
    excess_pl_sigma_db: float = 8.0
    excess_pl_per_ns_db: float = 0.02
    azimuth_spread_deg: float = 20.0
    zenith_spread_deg: float = 8.0
    spread_decay_m: float = 400.0

    tx_height_range: tuple = (20.0, 60.0)

    def validate(self):
        # chained comparisons with math.inf also reject NaN
        if not self.heights or not all(0 < h < math.inf for h in self.heights):
            raise DataError("heights must be non-empty, positive and finite")
        if self.max_paths != MAX_PATHS:
            raise DataError(f"max_paths must be {MAX_PATHS} to match the channel matrix")
        if not all(0 < x < math.inf for x in self.area):
            raise DataError("area dimensions must be positive and finite")
        if not 0 < self.carrier_freq < math.inf:
            raise DataError("carrier_freq must be positive and finite")
        if self.los_probability is not None and not 0 <= self.los_probability <= 1:
            raise DataError("los_probability must lie in [0, 1]")
        if self.num_tx * self.num_rx_per_height * len(self.heights) <= 0:
            raise DataError("zero links requested")


def _los_probability(cfg: SurrogateConfig, dist2d: float, height: float) -> float:
    if cfg.los_probability is not None:
        return cfg.los_probability
    scale = cfg.los_scale_base_m + cfg.los_scale_per_height * height
    return min(1.0, math.exp(-dist2d / scale))


def _scattered_paths(cfg, rng, n, dist2d, los):
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
    return [
        PathParams(
            pathloss=float(los.pathloss + excess_pl[i]),
            delay=float(los.delay + excess_delay[i]),
            aod=float(aod[i]),
            zod=float(zod[i]),
            aoa=float(aoa[i]),
            zoa=float(zoa[i]),
            phase=float(phase[i]),
        )
        for i in order
    ]


def _make_link(cfg: SurrogateConfig, tx, rx, link_index: int, dist2d: float,
               los: PathParams) -> LinkRecord:
    rng = substream(cfg.seed, "link", link_index)
    is_los = rng.uniform() < _los_probability(cfg, dist2d, rx[2])
    n_extra = int(rng.poisson(cfg.path_rate_base * math.exp(-dist2d / cfg.path_rate_decay_m)))

    if is_los:
        n_extra = min(n_extra, cfg.max_paths - 1)
        paths = [los] + _scattered_paths(cfg, rng, n_extra, dist2d, los)
    else:
        n_total = min(1 + n_extra, cfg.max_paths)
        paths = _scattered_paths(cfg, rng, n_total, dist2d, los)

    if min(p.pathloss for p in paths) > cfg.outage_threshold_db:
        state = LinkState.OUTAGE
    else:
        state = LinkState.LOS if is_los else LinkState.NLOS
    return LinkRecord(tx=tx, rx=rx, carrier_freq=cfg.carrier_freq, link_state=state, paths=paths)


def generate_dataset(cfg: SurrogateConfig) -> list:
    """Generate the full tx x rx x height grid of links.

    A pure function of the config: tx positions, rx positions and every
    link's paths come from independent substreams of cfg.seed, so the output
    is identical regardless of evaluation order.  The closed forms are
    evaluated once over the whole grid; a link without a LOS path (a
    vertical link, or a LOS pathloss that is not positive at a low carrier)
    is a GeometryError naming the first one.
    """
    cfg.validate()

    rng_tx = substream(cfg.seed, "tx")
    tx_xy = rng_tx.uniform([0.0, 0.0], cfg.area, size=(cfg.num_tx, 2))
    tx_z = rng_tx.uniform(*cfg.tx_height_range, size=cfg.num_tx)
    txs = np.column_stack([tx_xy, tx_z])
    rxs = np.concatenate([
        np.column_stack([substream(cfg.seed, "rx", h_idx).uniform(
            [0.0, 0.0], cfg.area, size=(cfg.num_rx_per_height, 2)),
            np.full(cfg.num_rx_per_height, float(height))])
        for h_idx, height in enumerate(cfg.heights)])
    # link index = rx index * num_tx + tx index
    tx_all, rx_all = np.tile(txs, (len(rxs), 1)), np.repeat(rxs, cfg.num_tx, axis=0)
    dist2d, _, fspl, los = closed_forms(tx_all, rx_all, np.full(len(rx_all), cfg.carrier_freq))
    if np.isnan(los).any():
        i = np.argmax(np.isnan(los[:, 0]))
        raise GeometryError(f"link {i}: " + ("azimuth undefined for a vertical link"
                                             if dist2d[i] == 0.0 else
                                             f"LOS pathloss {fspl[i]} dB is not positive"))
    return [_make_link(cfg, tuple(a), tuple(b), i, d2, PathParams(*row))
            for i, (a, b, d2, row) in enumerate(zip(
                tx_all.tolist(), rx_all.tolist(), dist2d.tolist(), los.tolist()))]


def train_test_split(links, test_fraction: float, seed: int):
    """Deterministic shuffle split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    order = substream(seed, "split").permutation(len(links))
    n_test = max(1, int(round(test_fraction * len(links))))
    test_idx = set(order[:n_test].tolist())
    train = [links[i] for i in range(len(links)) if i not in test_idx]
    test = [links[i] for i in sorted(test_idx)]
    return train, test
