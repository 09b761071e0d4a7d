"""Distributional metrics for comparing link datasets.

Implements the evaluation battery used to judge a generative channel model
against source data: empirical CDFs and Kolmogorov-Smirnov distances,
LOS/outage probability versus 2D distance, per-distance PDFs of zenith
angles relative to the LOS direction, uniformity checks for azimuths and
phases, and gain-weighted RMS spreads of delay and angles.
"""

import os
from dataclasses import dataclass

import numpy as np

from .core import PATH_FIELDS, LinkState, LinkTable
from .errors import DataError

__all__ = [
    "Ecdf",
    "ks_statistic",
    "ks_uniform",
    "uniformity_check",
    "LinkStateProb",
    "link_state_prob",
    "BinnedPdf2D",
    "relative_zenith_pdf",
    "RmsSpreadReport",
    "rms_spread_report",
    "compare_datasets",
]

RMS_FEATURES = ("delay", "aoa", "aod", "zoa", "zod")
_CIRCULAR = {"aoa", "aod"}
# column of each path feature in LinkTable.paths and LinkTable.los
_FEATURE_COL = {f: i for i, f in enumerate(PATH_FIELDS)}


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


def uniformity_check(samples, kind: str) -> float:
    """KS distance of azimuths against U(-180, 180] or phases against U(-360, 0]."""
    if kind in ("aoa", "aod"):
        return ks_uniform(samples, -180.0, 180.0)
    if kind == "phase":
        return ks_uniform(samples, -360.0, 0.0)
    raise DataError(f"unknown uniformity kind: {kind}")


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


def link_state_prob(table: LinkTable, height: float, bin_edges) -> LinkStateProb:
    """LOS/outage probability vs 2D distance for links at one height.

    Empty bins are reported with count 0 and NaN probabilities (absent, not
    zero).  P_LOS + P_outage <= 1 in every occupied bin.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)
    sel = table.height == height
    dists = table.dist2d[sel]
    is_los = (table.state[sel] == LinkState.LOS).astype(float)
    is_out = (table.state[sel] == LinkState.OUTAGE).astype(float)

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


def relative_zenith_pdf(table: LinkTable, height, dist_edges, angle_edges,
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
    used = ((table.height == height) & (table.state != LinkState.OUTAGE)
            & (table.counts > 0))
    ref = table.los[:, col]
    skipped = int(np.count_nonzero(used & np.isnan(ref)))
    t = table.take(used & ~np.isnan(ref))
    valid = t.valid
    rels = (t.paths[..., col] - t.los[:, col, None])[valid]
    dists = np.broadcast_to(t.dist2d[:, None], valid.shape)[valid]

    hist, _, _ = np.histogram2d(rels, dists, bins=(angle_edges, dist_edges))
    total = hist.sum(axis=0)
    density = np.divide(hist, np.maximum(total, 1.0)[None, :], out=np.zeros_like(hist),
                        where=total[None, :] > 0)
    return BinnedPdf2D(dist_edges, angle_edges, density, skipped_links=skipped)


@dataclass
class RmsSpreadReport:
    """Per-link RMS spreads (seconds for delay, degrees for angles)."""

    delay: np.ndarray
    aoa: np.ndarray
    aod: np.ndarray
    zoa: np.ndarray
    zod: np.ndarray


def rms_spread_report(table: LinkTable) -> RmsSpreadReport:
    """Gain-weighted RMS spreads of every link that has paths, in link order.

    Path gains are 10^(-pathloss/10).  Delay uses excess delay (delay minus
    the first arrival); azimuths are unwrapped around the gain-weighted
    circular mean before differencing so the +/-180 seam cannot inflate the
    spread.  A single path gives 0.
    """
    t = table.take(table.counts > 0)
    valid = t.valid
    pl = np.where(valid, t.paths[..., _FEATURE_COL["pathloss"]], np.inf)
    excess = pl - pl.min(axis=1, keepdims=True)
    gains = 10.0 ** (-excess / 10.0)  # 0 in the padding; common factor cancels
    w = gains / gains.sum(axis=1, keepdims=True)
    out = {}
    for feature in RMS_FEATURES:
        d = t.paths[..., _FEATURE_COL[feature]]
        if feature == "delay":
            d = d - np.where(valid, d, np.inf).min(axis=1, keepdims=True)
        elif feature in _CIRCULAR:
            # unwrap to within 180 deg of the gain-weighted circular mean
            rad = np.radians(d)
            mean = np.degrees(np.arctan2(np.sum(gains * np.sin(rad), axis=1, keepdims=True),
                                         np.sum(gains * np.cos(rad), axis=1, keepdims=True)))
            d = mean + (d - mean + 180.0) % 360.0 - 180.0
        mean = np.sum(w * d, axis=1, keepdims=True)
        out[feature] = np.sqrt(np.sum(w * (d - mean) ** 2, axis=1))
    return RmsSpreadReport(**out)


def compare_datasets(model: LinkTable, data: LinkTable, heights, dist_bin_width: float = 25.0,
                     angle_bin_width: float = 2.0, angle_range: float = 90.0) -> dict:
    """Model-vs-data divergence report, per receiver height.

    Returns {height: {metric: value}} with KS distances for pathloss and
    delay, uniformity KS for the model's azimuths/phases (each NaN at a
    height where a side it reads has no path), the maximum
    absolute LOS-probability gap over shared occupied distance bins, and
    relative-zenith spread profiles for both sides.  A bin width that is
    not positive and finite, or widths whose zenith PDF grid of float64
    bins would not fit in this machine's physical memory, are a DataError.
    """
    for name, width in (("dist_bin_width", dist_bin_width),
                        ("angle_bin_width", angle_bin_width)):
        if not 0 < width < np.inf:
            raise DataError(f"{name} must be positive and finite, got {width}")
    d_hi = float(np.concatenate([model.dist2d, data.dist2d]).max()) + dist_bin_width
    cells = (d_hi / dist_bin_width + 1.0) * (2.0 * angle_range / angle_bin_width + 1.0)
    grid_bytes = 8.0 * cells  # counted before any array exists; inf on underflow
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not grid_bytes <= memory:
        raise DataError(f"dist_bin_width {dist_bin_width} and angle_bin_width {angle_bin_width}"
                        f" give {cells:.3g} zenith PDF bins, a {grid_bytes:.3g}-byte float64"
                        f" grid, more than this machine's {memory:.3g} bytes of memory")
    dist_edges = np.arange(0.0, d_hi + dist_bin_width, dist_bin_width)
    angle_edges = np.arange(-angle_range, angle_range + angle_bin_width, angle_bin_width)

    report = {}
    for h in heights:
        m, d = model.take(model.height == h), data.take(data.height == h)
        entry = {"n_model_links": len(m), "n_data_links": len(d)}
        # every path of every link, link by link
        pool_m, pool_d = m.paths[m.valid], d.paths[d.valid]
        # a side without any path here (e.g. all Outage) has no distribution: NaN
        for feat in ("pathloss", "delay"):
            col = _FEATURE_COL[feat]
            entry[f"ks_{feat}"] = (ks_statistic(pool_m[:, col], pool_d[:, col])
                                   if len(pool_m) and len(pool_d) else np.nan)
        for feat in ("aoa", "aod", "phase"):
            entry[f"ks_uniform_{feat}"] = (uniformity_check(pool_m[:, _FEATURE_COL[feat]], feat)
                                           if len(pool_m) else np.nan)

        lsp_m = link_state_prob(m, h, dist_edges)
        lsp_d = link_state_prob(d, h, dist_edges)
        shared = lsp_m.occupied & lsp_d.occupied
        entry["max_los_prob_gap"] = float(
            np.max(np.abs(lsp_m.p_los[shared] - lsp_d.p_los[shared]))) if shared.any() else np.nan
        entry["link_state_model"] = lsp_m
        entry["link_state_data"] = lsp_d

        rms_m, rms_d = rms_spread_report(m), rms_spread_report(d)
        for feat in RMS_FEATURES:
            vm, vd = getattr(rms_m, feat), getattr(rms_d, feat)
            entry[f"ks_rms_{feat}"] = (
                ks_statistic(vm, vd) if len(vm) and len(vd) else np.nan)

        for side, table in (("model", m), ("data", d)):
            for ang in ("zod", "zoa"):
                entry[f"zenith_pdf_{ang}_{side}"] = relative_zenith_pdf(
                    table, h, dist_edges, angle_edges, ang)
        report[h] = entry
    return report
