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

from .core import (MAX_PATHS, OUTAGE_THRESHOLD_DB, LinkState, LinkTable, closed_forms, is_int,
                   path_rules, wrap_azimuth)
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
        for name in ("num_tx", "num_rx_per_height"):
            count = getattr(self, name)
            if not is_int(count) or count < 1:
                raise DataError(f"{name} must be a positive integer, got {count!r}")
        if not self.heights or not all(0 < h < math.inf for h in self.heights):
            raise DataError("heights must be non-empty, positive and finite")
        if not all(0 < x < math.inf for x in self.area):
            raise DataError("area dimensions must be positive and finite")
        if not 0 < self.carrier_freq < math.inf:
            raise DataError("carrier_freq must be positive and finite")
        if self.los_probability is not None and not 0 <= self.los_probability <= 1:
            raise DataError("los_probability must lie in [0, 1]")
        for name in ("los_scale_base_m", "path_rate_decay_m", "spread_decay_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise DataError(f"{name} must be positive and finite")
        for name in ("los_scale_per_height", "excess_delay_mean_s", "excess_pl_sigma_db",
                     "excess_pl_per_ns_db", "azimuth_spread_deg", "zenith_spread_deg"):
            if not 0 <= getattr(self, name) < math.inf:
                raise DataError(f"{name} must be non-negative and finite")
        # numpy's Poisson draw refuses a mean above about 9.2e18; a mean of
        # 1e6 already fills every link to the path cap
        if not 0 <= self.path_rate_base <= 1e6:
            raise DataError("path_rate_base must lie in [0, 1e6]")


def generate_dataset(cfg: SurrogateConfig) -> LinkTable:
    """The LinkTable of the full tx x rx x height grid of links.

    A pure function of the config.  The tx positions, the rx positions of
    each height and the links' draws come from their own streams of
    cfg.seed.  The closed forms are evaluated once over the whole grid; a
    link without a LOS path (a vertical link, or a LOS pathloss that is not
    positive at a low carrier) is a GeometryError naming the first one.

    The "link" stream is drawn in bulk, in this order, for N links: the N
    uniforms that decide LOS, the N Poisson counts of extra paths, then
    each of the 7 scattered-path fields for all P scattered paths, link by
    link: excess delay, excess-loss normal, AOD, AOA, ZOD and ZOA Laplace
    offsets (per-path scales, the spread times the link's decay) and the
    phase uniform.  A link's scattered paths sit around its LOS direction,
    delay and loss, sorted by delay behind the LOS path of a LOS link.
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
    ends = np.column_stack([np.tile(txs, (len(rxs), 1)), np.repeat(rxs, cfg.num_tx, axis=0),
                            np.full(len(rxs) * cfg.num_tx, float(cfg.carrier_freq))])
    dist2d, dist3d, fspl, los = closed_forms(ends[:, :3], ends[:, 3:6], ends[:, 6])
    if np.isnan(los).any():
        i = np.argmax(np.isnan(los[:, 0]))
        raise GeometryError(f"link {i}: " + ("azimuth undefined for a vertical link"
                                             if dist2d[i] == 0.0 else
                                             f"LOS pathloss {fspl[i]} dB is not positive"))

    rng = substream(cfg.seed, "link")
    if cfg.los_probability is None:
        p_los = np.minimum(1.0, np.exp(-dist2d / (cfg.los_scale_base_m
                                                  + cfg.los_scale_per_height * ends[:, 5])))
    else:
        p_los = cfg.los_probability
    is_los = rng.uniform(size=len(dist2d)) < p_los
    n_extra = rng.poisson(cfg.path_rate_base * np.exp(-dist2d / cfg.path_rate_decay_m))
    n_scattered = np.where(is_los, np.minimum(n_extra, MAX_PATHS - 1),
                           np.minimum(1 + n_extra, MAX_PATHS))
    n_paths = int(n_scattered.sum())
    decay = np.repeat(np.exp(-dist2d / cfg.spread_decay_m), n_scattered)
    az_scale, zen_scale = cfg.azimuth_spread_deg * decay, cfg.zenith_spread_deg * decay
    excess_delay = rng.exponential(cfg.excess_delay_mean_s, n_paths)
    normal = rng.normal(0.0, cfg.excess_pl_sigma_db, n_paths)
    l_aod, l_aoa = rng.laplace(0.0, az_scale), rng.laplace(0.0, az_scale)
    l_zod, l_zoa = rng.laplace(0.0, zen_scale), rng.laplace(0.0, zen_scale)
    phase = rng.uniform(0.0, 360.0, n_paths)

    # one pass over every scattered path, each written to its row of the
    # output: a link's rows are its LOS path, if any, then its scattered paths
    # by delay
    counts = n_scattered + is_los
    first = np.cumsum(counts) - counts  # each link's first row
    paths = np.empty((int(counts.sum()), 7))
    paths[first[is_los]] = los[is_los]
    link = np.repeat(np.arange(len(ends)), n_scattered)
    to = np.empty(len(link), dtype=np.intp)
    to[np.lexsort((excess_delay, link))] = (np.arange(len(link))
                                            + np.repeat(np.cumsum(is_los), n_scattered))
    with np.errstate(over="ignore"):  # path_rules reports a pathloss that overflows
        excess_pl = np.abs(normal)
        excess_pl += cfg.excess_pl_per_ns_db * excess_delay * 1e9
        paths[to, 0] = los[link, 0] + excess_pl
    paths[to, 1] = los[link, 1] + excess_delay
    paths[to, 2] = wrap_azimuth(los[link, 2] + l_aod)
    paths[to, 3] = np.clip(los[link, 3] + l_zod, 0.0, 180.0)
    paths[to, 4] = wrap_azimuth(los[link, 4] + l_aoa)
    paths[to, 5] = np.clip(los[link, 5] + l_zoa, 0.0, 180.0)
    paths[to, 6] = -phase  # (-360, 0]
    for message, bad in path_rules(paths):  # e.g. a spread knob so large a value overflows
        if bad.any():
            row = np.argmax(bad)
            raise DataError(f"link {np.searchsorted(first + counts, row, side='right')}: "
                            f"{message}")

    outage = np.minimum.reduceat(paths[:, 0], first) > OUTAGE_THRESHOLD_DB
    state = np.where(outage, LinkState.OUTAGE, np.where(is_los, LinkState.LOS, LinkState.NLOS))
    return LinkTable(paths, counts, state.astype(np.uint8), ends, dist2d, dist3d, fspl, los)


def train_test_split(table: LinkTable, test_fraction: float, seed: int):
    """Deterministic shuffle split of a table into (train, test) tables.

    Each part keeps the table's link order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    order = substream(seed, "split").permutation(len(table))
    n_test = max(1, int(round(test_fraction * len(table))))
    return table.take(np.sort(order[n_test:])), table.take(np.sort(order[:n_test]))
