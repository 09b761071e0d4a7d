"""Distributional metrics for comparing link datasets.

Implements the evaluation battery used to judge a generative channel model
against source data: empirical CDFs and Kolmogorov-Smirnov distances,
LOS/outage probability versus 2D distance, per-distance PDFs of zenith
angles relative to the LOS direction, KS distances of azimuths and phases
from the uniform distribution on their domains, and gain-weighted RMS
spreads of delay and angles.
"""

import os
from dataclasses import dataclass

import numpy as np

from .core import MAX_PATHS, PATH_FIELDS, LinkState, LinkTable
from .errors import DataError

__all__ = [
    "Ecdf",
    "ks_statistic",
    "ks_uniform",
    "LinkStateProb",
    "link_state_prob",
    "BinnedPdf2D",
    "relative_zenith_pdf",
    "rms_spread",
    "compare_datasets",
]

RMS_FEATURES = ("delay", "aoa", "aod", "zoa", "zod")
# the domain each model feature's uniformity KS distance is taken against
UNIFORM_DOMAINS = {"aoa": (-180.0, 180.0), "aod": (-180.0, 180.0), "phase": (-360.0, 0.0)}
# compare_datasets' scalar metrics at each height, in the order eval writes them
METRICS = ("ks_pathloss", "ks_delay", *(f"ks_uniform_{f}" for f in UNIFORM_DOMAINS),
           *(f"ks_rms_{f}" for f in RMS_FEATURES), "max_los_prob_gap")
_CIRCULAR = {"aoa", "aod"}
# column of each path feature in LinkTable.paths and LinkTable.los
_FEATURE_COL = {f: i for i, f in enumerate(PATH_FIELDS)}
ZENITH_SPAN = 90.0  # deg; compare_datasets bins relative zenith angles over [-90, 90]
# compare_datasets' bins: 2D distance (m) and relative zenith angle (deg)
DIST_BIN_WIDTH = 25.0
ANGLE_BIN_WIDTH = 2.0


class Ecdf:
    """Right-continuous empirical CDF of a 1D sample."""

    def __init__(self, samples):
        x = np.sort(np.asarray(samples, dtype=float).ravel())
        if x.size == 0:
            raise DataError("ecdf needs a non-empty sample")
        self.x = x
        self.n = x.size

    def __call__(self, v):
        return np.searchsorted(self.x, v, side="right") / self.n


def ks_statistic(a, b) -> float:
    """Two-sample KS distance: sup |F_a - F_b| over the merged support."""
    fa, fb = Ecdf(a), Ecdf(b)
    grid = np.concatenate([fa.x, fb.x])
    return float(np.max(np.abs(fa(grid) - fb(grid))))


def ks_uniform(samples, low: float, high: float) -> float:
    """One-sample KS distance against the uniform distribution on [low, high]."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise DataError("ks_uniform needs a non-empty sample")
    u = np.clip((x - low) / (high - low), 0.0, 1.0)
    i = np.arange(1, x.size + 1) / x.size
    return float(max(np.max(i - u), np.max(u - (i - 1 / x.size))))


@dataclass
class LinkStateProb:
    """Per-distance-bin LOS and outage fractions at one receiver height."""

    bin_edges: np.ndarray
    counts: np.ndarray
    p_los: np.ndarray
    p_outage: np.ndarray

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


def link_state_prob(table: LinkTable, bin_edges) -> LinkStateProb:
    """LOS/outage probability vs 2D distance over the table's links.

    Empty bins are reported with count 0 and NaN probabilities (absent, not
    zero).  P_LOS + P_outage <= 1 in every occupied bin.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)
    dists = table.dist2d
    is_los = (table.state == LinkState.LOS).astype(float)
    is_out = (table.state == LinkState.OUTAGE).astype(float)

    counts, _ = np.histogram(dists, bin_edges)
    los_counts, _ = np.histogram(dists, bin_edges, weights=is_los)
    out_counts, _ = np.histogram(dists, bin_edges, weights=is_out)
    p_los = np.where(counts > 0, los_counts / np.maximum(counts, 1), np.nan)
    p_out = np.where(counts > 0, out_counts / np.maximum(counts, 1), np.nan)
    return LinkStateProb(bin_edges, counts, p_los, p_out)


@dataclass
class BinnedPdf2D:
    """Column-normalized 2D histogram: angle PDF per distance bin."""

    dist_edges: np.ndarray
    angle_edges: np.ndarray
    density: np.ndarray  # (n_angle_bins, n_dist_bins); columns sum to 1 or 0
    skipped_links: int = 0

    def column_spread(self) -> np.ndarray:
        """Std of the angle PDF per distance column (NaN for empty columns)."""
        centers = 0.5 * (self.angle_edges[:-1] + self.angle_edges[1:])
        total = self.density.sum(axis=0)
        out = np.full(self.density.shape[1], np.nan)
        for j in range(self.density.shape[1]):
            if total[j] > 0:
                m = np.sum(centers * self.density[:, j])
                out[j] = np.sqrt(np.sum((centers - m) ** 2 * self.density[:, j]))
        return out


def relative_zenith_pdf(table: LinkTable, dist_edges, angle_edges,
                        angle: str = "zod") -> BinnedPdf2D:
    """PDF of zenith angles relative to the LOS direction, per distance bin.

    The LOS reference is computed from each link's actual endpoint
    coordinates (not from the conditioning variables), so rooftop
    transmitters above the receiver get the correct obtuse reference.
    Outage links are excluded; links without a LOS direction (vertical
    links) are skipped and counted.
    """
    if angle not in ("zod", "zoa"):
        raise DataError("angle must be 'zod' or 'zoa'")
    dist_edges = np.asarray(dist_edges, dtype=float)
    angle_edges = np.asarray(angle_edges, dtype=float)
    col = _FEATURE_COL[angle]
    used = (table.state != LinkState.OUTAGE) & (table.counts > 0)
    ref = table.los[:, col]
    skipped = int(np.count_nonzero(used & np.isnan(ref)))
    t = table.take(used & ~np.isnan(ref))
    rels = t.paths[:, col] - np.repeat(t.los[:, col], t.counts)
    dists = np.repeat(t.dist2d, t.counts)

    hist, _, _ = np.histogram2d(rels, dists, bins=(angle_edges, dist_edges))
    total = hist.sum(axis=0)
    density = np.divide(hist, np.maximum(total, 1.0)[None, :], out=np.zeros_like(hist),
                        where=total[None, :] > 0)
    return BinnedPdf2D(dist_edges, angle_edges, density, skipped_links=skipped)


def rms_spread(table: LinkTable) -> dict:
    """Gain-weighted RMS spreads of every link that has paths, in link order.

    {feature: (links,) array} over RMS_FEATURES, in seconds for delay and
    degrees for the angles.

    Path powers are 10^(-pathloss/10).  Delay uses excess delay (delay minus
    the first arrival); azimuths are unwrapped around the gain-weighted
    circular mean before differencing so the +/-180 seam cannot inflate the
    spread.  A single path gives 0.

    Each feature is padded to a (links, MAX_PATHS) block, so a link's sums
    run over the same padded row, and give the same bits, in any table.
    """
    t = table.take(table.counts > 0)
    valid = np.arange(MAX_PATHS) < t.counts[:, None]

    def padded(feature, fill):
        out = np.full(valid.shape, fill)
        out[valid] = t.paths[:, _FEATURE_COL[feature]]
        return out

    pl = padded("pathloss", np.inf)
    excess = pl - pl.min(axis=1, keepdims=True)
    power = 10.0 ** (-excess / 10.0)  # 0 in the padding; common factor cancels
    w = power / power.sum(axis=1, keepdims=True)
    out = {}
    for feature in RMS_FEATURES:
        d = padded(feature, 0.0)
        if feature == "delay":
            d = d - np.where(valid, d, np.inf).min(axis=1, keepdims=True)
        elif feature in _CIRCULAR:
            # unwrap to within 180 deg of the gain-weighted circular mean
            rad = np.radians(d)
            mean = np.degrees(np.arctan2(np.sum(power * np.sin(rad), axis=1, keepdims=True),
                                         np.sum(power * np.cos(rad), axis=1, keepdims=True)))
            d = mean + (d - mean + 180.0) % 360.0 - 180.0
        mean = np.sum(w * d, axis=1, keepdims=True)
        out[feature] = np.sqrt(np.sum(w * (d - mean) ** 2, axis=1))
    return out


def compare_datasets(model: LinkTable, data: LinkTable, heights) -> dict:
    """Model-vs-data divergence report, per receiver height.

    Returns {height: entry}.  Each entry holds a value for every name in
    METRICS: KS distances of pathloss, delay and the RMS spreads between
    the sides, the KS distance of the model's azimuths and phases from the
    uniform distribution on UNIFORM_DOMAINS (each NaN at a height where a
    side it reads has no path), and the maximum absolute LOS-probability
    gap over shared occupied distance bins.  It also holds both sides'
    LinkStateProb and relative-zenith PDFs, binned by DIST_BIN_WIDTH and
    ANGLE_BIN_WIDTH.  Links so far apart that the zenith PDF grid of
    float64 bins would not fit in this machine's physical memory are a
    DataError.
    """
    d_max = float(np.concatenate([model.dist2d, data.dist2d]).max())
    d_hi = d_max + DIST_BIN_WIDTH
    cells = (d_hi / DIST_BIN_WIDTH + 1.0) * (2.0 * ZENITH_SPAN / ANGLE_BIN_WIDTH + 1.0)
    grid_bytes = 8.0 * cells  # counted before any array exists
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not grid_bytes <= memory:
        raise DataError(f"links up to {d_max:.3g} m apart give {cells:.3g} zenith PDF bins,"
                        f" a {grid_bytes:.3g}-byte float64 grid, more than this machine's"
                        f" {memory:.3g} bytes of memory")
    dist_edges = np.arange(0.0, d_hi + DIST_BIN_WIDTH, DIST_BIN_WIDTH)
    angle_edges = np.arange(-ZENITH_SPAN, ZENITH_SPAN + ANGLE_BIN_WIDTH, ANGLE_BIN_WIDTH)

    report = {}
    for h in heights:
        m, d = model.take(model.height == h), data.take(data.height == h)
        entry = {}
        # every path of every link, link by link
        pool_m, pool_d = m.paths, d.paths
        # a side without any path here (e.g. all Outage) has no distribution: NaN
        for feat in ("pathloss", "delay"):
            col = _FEATURE_COL[feat]
            entry[f"ks_{feat}"] = (ks_statistic(pool_m[:, col], pool_d[:, col])
                                   if len(pool_m) and len(pool_d) else np.nan)
        for feat, (low, high) in UNIFORM_DOMAINS.items():
            entry[f"ks_uniform_{feat}"] = (ks_uniform(pool_m[:, _FEATURE_COL[feat]], low, high)
                                           if len(pool_m) else np.nan)

        lsp_m, lsp_d = link_state_prob(m, dist_edges), link_state_prob(d, dist_edges)
        shared = lsp_m.occupied & lsp_d.occupied
        entry["max_los_prob_gap"] = float(
            np.max(np.abs(lsp_m.p_los[shared] - lsp_d.p_los[shared]))) if shared.any() else np.nan
        entry["link_state_model"] = lsp_m
        entry["link_state_data"] = lsp_d

        rms_m, rms_d = rms_spread(m), rms_spread(d)
        for feat in RMS_FEATURES:
            vm, vd = rms_m[feat], rms_d[feat]
            entry[f"ks_rms_{feat}"] = (
                ks_statistic(vm, vd) if len(vm) and len(vd) else np.nan)

        for side, table in (("model", m), ("data", d)):
            for ang in ("zod", "zoa"):
                entry[f"zenith_pdf_{ang}_{side}"] = relative_zenith_pdf(
                    table, dist_edges, angle_edges, ang)
        report[h] = entry
    return report
