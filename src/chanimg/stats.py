"""Distributional metrics for comparing link datasets.

Implements the evaluation battery used to judge a generative channel model
against source data: empirical CDFs and Kolmogorov-Smirnov distances,
LOS/outage probability versus 2D distance, per-distance PDFs of zenith
angles relative to the LOS direction, uniformity checks for azimuths and
phases, and gain-weighted RMS spreads of delay and angles.
"""

from dataclasses import dataclass, fields

import numpy as np

from .core import MAX_PATHS, LinkState, geometry, los_params
from .errors import DataError, GeometryError

__all__ = [
    "Ecdf",
    "ecdf",
    "ks_statistic",
    "ks_uniform",
    "uniformity_check",
    "LinkStateProb",
    "link_state_prob",
    "BinnedPdf2D",
    "relative_zenith_pdf",
    "rms_spread",
    "RmsSpreadReport",
    "rms_spread_report",
    "path_feature_samples",
    "PathTable",
    "compare_datasets",
]

RMS_FEATURES = ("delay", "aoa", "aod", "zoa", "zod")
_CIRCULAR = {"aoa", "aod"}
_FEATURE_ATTR = {
    "pathloss": "pathloss",
    "delay": "delay",
    "aod": "aod",
    "zod": "zod",
    "aoa": "aoa",
    "zoa": "zoa",
    "phase": "phase",
}
# column of each path feature in a PathTable (PathParams field order)
_FEATURE_COL = {f: i for i, f in
                enumerate(("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase"))}
_ZENITH_REF = {"zod": 0, "zoa": 1}  # column of PathTable.los_zenith


def _padded_paths(path_lists):
    """(N, W, 7) zero-padded path features and (N,) counts, W >= MAX_PATHS.

    The width is fixed rather than fitted to the data, so a link's sums run
    over the same padded row, and give the same bits, in any table.
    """
    counts = np.array([len(ps) for ps in path_lists], dtype=int)
    width = max(MAX_PATHS, int(counts.max(initial=0)))
    out = np.zeros((len(counts), width, len(_FEATURE_COL)))
    for i, ps in enumerate(path_lists):
        if ps:
            out[i, :len(ps)] = [[p.pathloss, p.delay, p.aod, p.zod, p.aoa, p.zoa, p.phase]
                                for p in ps]
    return out, counts


@dataclass
class PathTable:
    """Per-link arrays of a link dataset, the form the eval kernels work on.

    paths holds each link's paths in its first counts[i] rows, zero beyond.
    dist2d is NaN where the endpoints coincide; los_zenith holds the LOS
    (zod, zoa) of every non-Outage link with paths, NaN where that link has
    no LOS direction or is not such a link.
    """

    paths: np.ndarray       # (N, W, 7)
    counts: np.ndarray      # (N,)
    state: np.ndarray       # (N,) LinkState objects
    dist2d: np.ndarray      # (N,)
    height: np.ndarray      # (N,)
    los_zenith: np.ndarray  # (N, 2)

    @classmethod
    def from_links(cls, links) -> "PathTable":
        links = list(links)
        paths, counts = _padded_paths([lk.paths for lk in links])
        dist2d = np.full(len(links), np.nan)
        los_zenith = np.full((len(links), 2), np.nan)
        for i, lk in enumerate(links):
            try:
                dist2d[i] = geometry(lk.tx, lk.rx)[0]
                if lk.paths and lk.link_state is not LinkState.OUTAGE:
                    ref = los_params(lk.tx, lk.rx, lk.carrier_freq)
                    los_zenith[i] = ref.zod, ref.zoa
            except GeometryError:
                pass
        return cls(paths, counts, np.array([lk.link_state for lk in links], dtype=object),
                   dist2d, np.array([lk.rx[2] for lk in links], dtype=float), los_zenith)

    def take(self, rows) -> "PathTable":
        return PathTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    @property
    def valid(self) -> np.ndarray:
        """(N, W) mask of the real path cells."""
        return np.arange(self.paths.shape[1]) < self.counts[:, None]


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


def ecdf(samples) -> Ecdf:
    return Ecdf(samples)


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
    if kind in ("aoa", "aod", "azimuth"):
        return ks_uniform(samples, -180.0, 180.0)
    if kind in ("phase", "ps"):
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


def link_state_prob(links, height: float, bin_edges) -> LinkStateProb:
    """LOS/outage probability vs 2D distance for links at one height.

    Empty bins are reported with count 0 and NaN probabilities (absent, not
    zero).  P_LOS + P_outage <= 1 in every occupied bin.
    """
    bin_edges = np.asarray(bin_edges, dtype=float)
    sel = [lk for lk in links if lk.rx[2] == height]
    dists = np.array([geometry(lk.tx, lk.rx)[0] for lk in sel])
    is_los = np.array([lk.link_state is LinkState.LOS for lk in sel], dtype=float)
    is_out = np.array([lk.link_state is LinkState.OUTAGE for lk in sel], dtype=float)

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


def relative_zenith_pdf(links, height, dist_edges, angle_edges, angle: str = "zod") -> BinnedPdf2D:
    """PDF of zenith angles relative to the LOS direction, per distance bin.

    The LOS reference is computed from each link's actual endpoint
    coordinates (not from the conditioning variables), so rooftop
    transmitters above the receiver get the correct obtuse reference.
    Outage links are excluded; degenerate-geometry links are skipped and
    counted.
    """
    if angle not in _ZENITH_REF:
        raise DataError("angle must be 'zod' or 'zoa'")
    return _relative_zenith_kernel(PathTable.from_links(links), height,
                                   np.asarray(dist_edges, dtype=float),
                                   np.asarray(angle_edges, dtype=float), angle)


def _relative_zenith_kernel(table: PathTable, height, dist_edges, angle_edges,
                            angle: str) -> BinnedPdf2D:
    used = ((table.height == height) & (table.state != LinkState.OUTAGE)
            & (table.counts > 0))
    ref = table.los_zenith[:, _ZENITH_REF[angle]]
    skipped = int(np.count_nonzero(used & np.isnan(ref)))
    t = table.take(used & ~np.isnan(ref))
    valid = t.valid
    rels = (t.paths[..., _FEATURE_COL[angle]] - t.los_zenith[:, _ZENITH_REF[angle], None])[valid]
    dists = np.broadcast_to(t.dist2d[:, None], valid.shape)[valid]

    hist, _, _ = np.histogram2d(rels, dists, bins=(angle_edges, dist_edges))
    total = hist.sum(axis=0)
    density = np.divide(hist, np.maximum(total, 1.0)[None, :], out=np.zeros_like(hist),
                        where=total[None, :] > 0)
    return BinnedPdf2D(dist_edges, angle_edges, density, skipped_links=skipped)


def rms_spread(paths, feature: str) -> float:
    """Gain-weighted RMS spread of one feature over a link's paths.

    Path gains are 10^(-pathloss/10).  Delay uses excess delay (delay minus
    the first arrival); azimuths are unwrapped around the gain-weighted
    circular mean before differencing so the +/-180 seam cannot inflate the
    spread.  A single path gives 0.
    """
    if feature not in RMS_FEATURES:
        raise DataError(f"unknown RMS feature: {feature}")
    if not paths:
        raise DataError("rms_spread needs at least one path")
    table, counts = _padded_paths([paths])
    return float(_rms_kernel(table, counts, (feature,))[feature][0])


def _rms_kernel(paths, counts, features) -> dict:
    """{feature: (N,) RMS spreads} of padded (N, W, 7) paths, counts >= 1."""
    valid = np.arange(paths.shape[1]) < counts[:, None]
    pl = np.where(valid, paths[..., _FEATURE_COL["pathloss"]], np.inf)
    excess = pl - pl.min(axis=1, keepdims=True)
    gains = 10.0 ** (-excess / 10.0)  # 0 in the padding; common factor cancels
    w = gains / gains.sum(axis=1, keepdims=True)
    out = {}
    for feature in features:
        d = paths[..., _FEATURE_COL[feature]]
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
    return out


@dataclass
class RmsSpreadReport:
    """Per-link RMS spreads (seconds for delay, degrees for angles)."""

    delay: np.ndarray
    aoa: np.ndarray
    aod: np.ndarray
    zoa: np.ndarray
    zod: np.ndarray


def rms_spread_report(links) -> RmsSpreadReport:
    """RMS spreads of every link that has paths, in link order."""
    return _rms_report(PathTable.from_links(links))


def _rms_report(table: PathTable) -> RmsSpreadReport:
    t = table.take(table.counts > 0)
    return RmsSpreadReport(**_rms_kernel(t.paths, t.counts, RMS_FEATURES))


def path_feature_samples(links, feature: str, height=None) -> np.ndarray:
    """Pool one path feature over all paths of all (optionally one-height) links."""
    attr = _FEATURE_ATTR[feature]
    out = []
    for lk in links:
        if height is not None and lk.rx[2] != height:
            continue
        out.extend(getattr(p, attr) for p in lk.paths)
    return np.asarray(out, dtype=float)


def compare_datasets(model_links, data_links, heights, dist_bin_width: float = 25.0,
                     angle_bin_width: float = 2.0, angle_range: float = 90.0) -> dict:
    """Model-vs-data divergence report, per receiver height.

    Returns {height: {metric: value}} with KS distances for pathloss and
    delay, uniformity KS for the model's azimuths/phases, the maximum
    absolute LOS-probability gap over shared occupied distance bins, and
    relative-zenith spread profiles for both sides.
    """
    all_d2 = [geometry(lk.tx, lk.rx)[0] for lk in list(model_links) + list(data_links)]
    d_hi = max(all_d2) + dist_bin_width
    dist_edges = np.arange(0.0, d_hi + dist_bin_width, dist_bin_width)
    angle_edges = np.arange(-angle_range, angle_range + angle_bin_width, angle_bin_width)

    tables = {"model": PathTable.from_links(model_links),
              "data": PathTable.from_links(data_links)}

    report = {}
    for h in heights:
        m = [lk for lk in model_links if lk.rx[2] == h]
        d = [lk for lk in data_links if lk.rx[2] == h]
        entry = {"n_model_links": len(m), "n_data_links": len(d)}
        for feat in ("pathloss", "delay"):
            entry[f"ks_{feat}"] = ks_statistic(
                path_feature_samples(m, feat), path_feature_samples(d, feat))
        for feat in ("aoa", "aod"):
            entry[f"ks_uniform_{feat}"] = uniformity_check(path_feature_samples(m, feat), feat)
        entry["ks_uniform_phase"] = uniformity_check(path_feature_samples(m, "phase"), "phase")

        lsp_m = link_state_prob(m, h, dist_edges)
        lsp_d = link_state_prob(d, h, dist_edges)
        shared = lsp_m.occupied & lsp_d.occupied
        entry["max_los_prob_gap"] = float(
            np.max(np.abs(lsp_m.p_los[shared] - lsp_d.p_los[shared]))) if shared.any() else np.nan
        entry["link_state_model"] = lsp_m
        entry["link_state_data"] = lsp_d

        rms_m, rms_d = (_rms_report(t.take(t.height == h)) for t in tables.values())
        for feat in RMS_FEATURES:
            vm, vd = getattr(rms_m, feat), getattr(rms_d, feat)
            entry[f"ks_rms_{feat}"] = (
                ks_statistic(vm, vd) if len(vm) and len(vd) else np.nan)

        for side, table in tables.items():
            for ang in ("zod", "zoa"):
                entry[f"zenith_pdf_{ang}_{side}"] = _relative_zenith_kernel(
                    table, h, dist_edges, angle_edges, ang)
        report[h] = entry
    return report
