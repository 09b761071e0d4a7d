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
from dataclasses import dataclass

import numpy as np

from .core import MAX_PATHS, LinkState, LinkTable, closed_forms, path_rules, wrap_azimuth
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


def generate_dataset(cfg: SurrogateConfig) -> LinkTable:
    """The LinkTable of the full tx x rx x height grid of links.

    A pure function of the config: tx positions, rx positions and every
    link's paths come from independent substreams of cfg.seed, so the output
    is identical regardless of evaluation order.  The closed forms are
    evaluated once over the whole grid; a link without a LOS path (a
    vertical link, or a LOS pathloss that is not positive at a low carrier)
    is a GeometryError naming the first one.  A link's scattered paths sit
    around its LOS direction, delay and loss, sorted by delay behind the
    LOS path of a LOS link.
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
    freq = np.full(len(rx_all), float(cfg.carrier_freq))
    dist2d, dist3d, fspl, los = closed_forms(tx_all, rx_all, freq)
    if np.isnan(los).any():
        i = np.argmax(np.isnan(los[:, 0]))
        raise GeometryError(f"link {i}: " + ("azimuth undefined for a vertical link"
                                             if dist2d[i] == 0.0 else
                                             f"LOS pathloss {fspl[i]} dB is not positive"))

    # per link, only the draws: each link's substream is read in a fixed order
    is_los, n_scattered, draws = [], [], []
    for i, (d2, h) in enumerate(zip(dist2d.tolist(), rx_all[:, 2].tolist())):
        rng = substream(cfg.seed, "link", i)
        los_link = rng.uniform() < _los_probability(cfg, d2, h)
        n_extra = int(rng.poisson(cfg.path_rate_base * math.exp(-d2 / cfg.path_rate_decay_m)))
        n = min(n_extra, cfg.max_paths - 1) if los_link else min(1 + n_extra, cfg.max_paths)
        decay = math.exp(-d2 / cfg.spread_decay_m)
        az_scale, zen_scale = cfg.azimuth_spread_deg * decay, cfg.zenith_spread_deg * decay
        is_los.append(los_link)
        n_scattered.append(n)
        draws.append((rng.exponential(cfg.excess_delay_mean_s, n),
                      rng.normal(0.0, cfg.excess_pl_sigma_db, n),
                      rng.laplace(0.0, az_scale, n), rng.laplace(0.0, az_scale, n),
                      rng.laplace(0.0, zen_scale, n), rng.laplace(0.0, zen_scale, n),
                      rng.uniform(0.0, 360.0, n)))
    is_los, n_scattered = np.array(is_los), np.array(n_scattered)
    excess_delay, normal, l_aod, l_aoa, l_zod, l_zoa, phase = map(np.concatenate, zip(*draws))

    # then one pass over every scattered path
    link = np.repeat(np.arange(len(rx_all)), n_scattered)
    base = los[link]
    excess_pl = np.abs(normal)
    excess_pl += cfg.excess_pl_per_ns_db * excess_delay * 1e9
    rows = np.column_stack([
        base[:, 0] + excess_pl, base[:, 1] + excess_delay,
        wrap_azimuth(base[:, 2] + l_aod), np.clip(base[:, 3] + l_zod, 0.0, 180.0),
        wrap_azimuth(base[:, 4] + l_aoa), np.clip(base[:, 5] + l_zoa, 0.0, 180.0),
        -phase])  # (-360, 0]
    for message, bad in path_rules(rows):  # e.g. a spread knob so large a value overflows
        if bad.any():
            raise DataError(f"link {link[np.argmax(bad)]}: {message}")
    counts = n_scattered + is_los
    valid = np.arange(MAX_PATHS) < counts[:, None]
    paths = np.zeros((len(counts), MAX_PATHS, 7))
    paths[is_los, 0] = los[is_los]
    scattered = valid.copy()
    scattered[:, 0] &= ~is_los  # a LOS link's first slot holds its LOS path
    paths[scattered] = rows[np.lexsort((excess_delay, link))]

    outage = np.where(valid, paths[..., 0], np.inf).min(axis=1) > cfg.outage_threshold_db
    state = np.where(outage, LinkState.OUTAGE, np.where(is_los, LinkState.LOS, LinkState.NLOS))
    return LinkTable(paths, counts, state, tx_all, rx_all, freq, dist2d, dist3d, fspl, los)


def train_test_split(table: LinkTable, test_fraction: float, seed: int):
    """Deterministic shuffle split of a table into (train, test) tables.

    Each part keeps the table's link order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    order = substream(seed, "split").permutation(len(table))
    n_test = max(1, int(round(test_fraction * len(table))))
    return table.take(np.sort(order[n_test:])), table.take(np.sort(order[:n_test]))
