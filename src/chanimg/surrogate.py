"""Parametric stochastic generator of link datasets.

Stands in for a ray-tracing simulation: transmitters sit on rooftops,
receivers are dropped at a set of discrete heights, and the multipath
parameters of each link are drawn from simple parametric distributions.

The distributions here are stand-ins, NOT fitted to any measured or
ray-traced data.  They are chosen only to reproduce the qualitative trends
a dense-urban simulation shows: line-of-sight gets more likely at higher
receiver altitudes, scattering (path count and angular spread) thins out
with distance, and excess pathloss grows slowly with excess delay.  They
are fixed, the module constants below:

  - P(LOS) = exp(-dist2d / (LOS_SCALE_BASE_M + LOS_SCALE_PER_HEIGHT * h)),
    unless SurrogateConfig.los_probability fixes it;
  - 1 + Poisson(PATH_RATE_BASE * exp(-dist2d / PATH_RATE_DECAY_M))
    scattered paths, one fewer beside a LOS path;
  - excess delay ~ Exponential(EXCESS_DELAY_MEAN_S), excess pathloss
    |Normal(0, EXCESS_PL_SIGMA_DB)| + EXCESS_PL_PER_NS_DB per ns of it;
  - Laplace azimuth and zenith offsets of scale AZIMUTH_SPREAD_DEG and
    ZENITH_SPREAD_DEG times exp(-dist2d / SPREAD_DECAY_M);
  - transmitter heights uniform over TX_HEIGHT_RANGE.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_PATHS, OUTAGE_THRESHOLD_DB, LinkState, LinkTable, is_int, los_rules,
                   wrap_azimuth)
from .errors import DataError, GeometryError
from .rng import substream

__all__ = ["SurrogateConfig", "generate_dataset", "train_test_split"]

DEFAULT_HEIGHTS = (1.6, 30.0, 60.0, 90.0, 120.0)
LOS_SCALE_BASE_M = 50.0
LOS_SCALE_PER_HEIGHT = 3.0
PATH_RATE_BASE = 12.0
PATH_RATE_DECAY_M = 300.0
EXCESS_DELAY_MEAN_S = 200e-9
EXCESS_PL_SIGMA_DB = 8.0
EXCESS_PL_PER_NS_DB = 0.02
AZIMUTH_SPREAD_DEG = 20.0
ZENITH_SPREAD_DEG = 8.0
SPREAD_DECAY_M = 400.0
TX_HEIGHT_RANGE = (20.0, 60.0)


@dataclass
class SurrogateConfig:
    """The grid, carrier and seed of a surrogate dataset.

    Total dataset size is num_tx * num_rx_per_height * len(heights).
    Defaults give 5,000 links at 12 GHz in a 500 m x 500 m area.
    los_probability, when set, replaces the distance/height LOS model
    with a fixed probability.  The module constants (LOS_SCALE_BASE_M,
    LOS_SCALE_PER_HEIGHT, PATH_RATE_BASE, PATH_RATE_DECAY_M,
    EXCESS_DELAY_MEAN_S, EXCESS_PL_SIGMA_DB, EXCESS_PL_PER_NS_DB,
    AZIMUTH_SPREAD_DEG, ZENITH_SPREAD_DEG, SPREAD_DECAY_M and
    TX_HEIGHT_RANGE) fix every other distribution.
    """

    num_tx: int = 10
    num_rx_per_height: int = 100
    heights: tuple = DEFAULT_HEIGHTS
    area: tuple = (500.0, 500.0)
    carrier_freq: float = 12e9
    seed: int = 0
    los_probability: float | None = None

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


def generate_dataset(cfg: SurrogateConfig) -> LinkTable:
    """The LinkTable of the full tx x rx x height grid of links.

    A pure function of the config.  The tx positions, the rx positions of
    each height and the links' draws come from their own streams of
    cfg.seed.  The closed forms are evaluated once over the whole grid; a
    link without a LOS path is a GeometryError naming the first one and
    the first of core.los_rules it breaks (a vertical link, a LOS pathloss
    that is not positive at a low carrier, or a phase whose carrier
    rotation overflows).

    The "link" stream is drawn in bulk, in this order, for N links: the N
    uniforms that decide LOS, the N Poisson counts of extra paths, then
    each of the 7 scattered-path fields for all P scattered paths, link by
    link: excess delay, excess-loss normal, AOD, AOA, ZOD and ZOA Laplace
    offsets (per-path scales, the spread times the link's decay) and the
    phase uniform.  A link's scattered paths sit around its LOS direction,
    delay and loss, sorted by delay behind the LOS path of a LOS link.
    Their pathloss and delay are the LOS path's plus a finite non-negative
    draw, their angles the LOS path's plus a finite offset, wrapped or
    clipped, and their phase a uniform in (-360, 0]: with every LOS row
    valid, every path row is.
    """
    cfg.validate()

    rng_tx = substream(cfg.seed, "tx")
    tx_xy = rng_tx.uniform([0.0, 0.0], cfg.area, size=(cfg.num_tx, 2))
    tx_z = rng_tx.uniform(*TX_HEIGHT_RANGE, size=cfg.num_tx)
    txs = np.column_stack([tx_xy, tx_z])
    rxs = np.concatenate([
        np.column_stack([substream(cfg.seed, "rx", h_idx).uniform(
            [0.0, 0.0], cfg.area, size=(cfg.num_rx_per_height, 2)),
            np.full(cfg.num_rx_per_height, float(height))])
        for h_idx, height in enumerate(cfg.heights)])
    # link index = rx index * num_tx + tx index
    ends = np.column_stack([np.tile(txs, (len(rxs), 1)), np.repeat(rxs, cfg.num_tx, axis=0),
                            np.full(len(rxs) * cfg.num_tx, float(cfg.carrier_freq))])
    dist2d, dist3d, fspl, los, rules = los_rules(ends[:, :3], ends[:, 3:6], ends[:, 6])
    no_los = np.logical_or.reduce([bad for _, bad in rules])
    if no_los.any():
        i = np.argmax(no_los)
        raise GeometryError(f"link {i}: no LOS path: "
                            + next(message for message, bad in rules if bad[i]))

    rng = substream(cfg.seed, "link")
    if cfg.los_probability is None:
        p_los = np.minimum(1.0, np.exp(-dist2d / (LOS_SCALE_BASE_M
                                                  + LOS_SCALE_PER_HEIGHT * ends[:, 5])))
    else:
        p_los = cfg.los_probability
    is_los = rng.uniform(size=len(dist2d)) < p_los
    n_extra = rng.poisson(PATH_RATE_BASE * np.exp(-dist2d / PATH_RATE_DECAY_M))
    n_scattered = np.where(is_los, np.minimum(n_extra, MAX_PATHS - 1),
                           np.minimum(1 + n_extra, MAX_PATHS))
    n_paths = int(n_scattered.sum())
    decay = np.repeat(np.exp(-dist2d / SPREAD_DECAY_M), n_scattered)
    az_scale, zen_scale = AZIMUTH_SPREAD_DEG * decay, ZENITH_SPREAD_DEG * decay
    excess_delay = rng.exponential(EXCESS_DELAY_MEAN_S, n_paths)
    normal = rng.normal(0.0, EXCESS_PL_SIGMA_DB, n_paths)
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
    excess_pl = np.abs(normal)
    excess_pl += EXCESS_PL_PER_NS_DB * excess_delay * 1e9
    paths[to, 0] = los[link, 0] + excess_pl
    paths[to, 1] = los[link, 1] + excess_delay
    paths[to, 2] = wrap_azimuth(los[link, 2] + l_aod)
    paths[to, 3] = np.clip(los[link, 3] + l_zod, 0.0, 180.0)
    paths[to, 4] = wrap_azimuth(los[link, 4] + l_aoa)
    paths[to, 5] = np.clip(los[link, 5] + l_zoa, 0.0, 180.0)
    paths[to, 6] = -phase  # (-360, 0]

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
