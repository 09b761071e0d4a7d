"""Invertible mapping between link records and 64x50 channel images.

Encode pipeline, run on a whole dataset at once:
  1. pad each link's #paths x 8 features to a fixed 8x25 matrix with "virtual"
     paths: non-pathloss features drawn uniformly inside the dataset's real
     ranges, virtual pathloss drawn in (181, 190) dB so anything above the
     180 dB outage threshold marks a column as virtual;
  2. re-reference pathloss to free-space loss and delay to the LOS delay
     (times 1e7 so delays land in a workable numeric range), and encode the
     link state as a value near +1 (LOS) or -1 (NLOS/Outage);
  3. Min-Max scale each feature row into [-1, 1] with ranges fitted over
     the whole padded tensor;
  4. tile every matrix cell into an 8x2 pixel block, giving 64x50.

The padding draws come from one rng in a fixed order: a (N, 25) block of
virtual pathloss, then one (N, 25) block per row from delay to phase (cells
of real paths draw too and discard the value), then one link-state draw per
link.

Decode runs the exact inverse (block mean, inverse scaling, add the
references back), votes the link state on the mean of the last row,
overwrites the first column with the closed-form LOS path when the vote is
LOS, and strips every column whose pathloss exceeds the outage threshold.
Every step is exact up to float64 rounding, so decode(encode(link))
recovers the real paths.

Angles are kept absolute, not relative to the LOS direction: with only
(dist2d, height) as conditions the LOS azimuth is not recoverable, so
relative azimuths would make the pipeline non-invertible.
"""

from typing import NamedTuple

import numpy as np

from .core import (
    MAX_PATHS,
    SPEED_OF_LIGHT,
    LinkRecord,
    LinkState,
    PathParams,
    fspl,
    geometry,
    los_params,
    padded_paths,
    wrap_azimuth,
    wrap_phase,
)
from .errors import DataError, FormatError

__all__ = [
    "FEATURES",
    "FeatureScaler",
    "ChannelImageCodec",
    "tile",
    "untile",
    "fit_codec",
]

FEATURES = ("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase", "link_state")
N_FEATURES = 8
PL, DLY, AOD, ZOD, AOA, ZOA, PS, LS = range(N_FEATURES)

IMAGE_SHAPE = (64, 50)
V_REP, H_REP = 8, 2  # vertical / horizontal replication factors

DELAY_SCALE = 1e7
OUTAGE_THRESHOLD_DB = 180.0
VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH = 181.0, 190.0
LINK_STATE_EPS = 0.01
DECODE_CHUNK = 256  # images per decode block; bounds decode's working memory


class FeatureScaler:
    """Per-feature Min-Max scaling of the padded, re-referenced tensor.

    Maps each feature row affinely so the fitted min/max land on -1/+1
    exactly.  Values outside the fitted range (possible at inference time)
    are clamped and counted in n_clipped rather than rejected.
    """

    def __init__(self, feature_min, feature_max):
        self.feature_min = np.asarray(feature_min, dtype=np.float64)
        self.feature_max = np.asarray(feature_max, dtype=np.float64)
        if self.feature_min.shape != (N_FEATURES,) or self.feature_max.shape != (N_FEATURES,):
            raise DataError("scaler needs one (min, max) pair per feature")
        span = self.feature_max - self.feature_min
        for i, s in enumerate(span):
            if not s > 0:
                raise DataError(f"degenerate feature '{FEATURES[i]}': max <= min")
        self.n_clipped = 0

    def scale(self, values: np.ndarray) -> np.ndarray:
        """Scale raw feature rows (works on (..., 8, 25) stacks)."""
        lo = self.feature_min[:, None]
        hi = self.feature_max[:, None]
        self.n_clipped += int(np.count_nonzero((values < lo) | (values > hi)))
        x = 2.0 * (values - lo) / (hi - lo) - 1.0
        return np.clip(x, -1.0, 1.0)

    def unscale(self, x: np.ndarray) -> np.ndarray:
        self.n_clipped += int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        x = np.clip(x, -1.0, 1.0)
        lo = self.feature_min[:, None]
        hi = self.feature_max[:, None]
        return lo + (x + 1.0) * 0.5 * (hi - lo)

    def to_dict(self) -> dict:
        return {
            "feature_min": self.feature_min.tolist(),
            "feature_max": self.feature_max.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureScaler":
        return cls(d["feature_min"], d["feature_max"])


def tile(values: np.ndarray) -> np.ndarray:
    """Replicate each cell of (..., 8, 25) matrices 8x vertically and 2x horizontally."""
    lead = values.shape[:-2]
    out = np.empty((*lead, *IMAGE_SHAPE))
    out.reshape(*lead, N_FEATURES, V_REP, MAX_PATHS, H_REP)[...] = values[..., :, None, :, None]
    return out


def untile(image: np.ndarray) -> np.ndarray:
    """Block mean over each 8x2 pixel block; exact inverse of tile."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape[-2:] != IMAGE_SHAPE:
        raise DataError(f"channel image must be {IMAGE_SHAPE[0]}x{IMAGE_SHAPE[1]}")
    b = image.reshape(*image.shape[:-2], N_FEATURES, V_REP, MAX_PATHS, H_REP)
    # balanced pairwise sums: every add combines equal-size blocks, so the
    # mean of a constant block is bit-exact (each step doubles the value)
    s = b[..., 0] + b[..., 1]
    s = s[..., 0::2, :] + s[..., 1::2, :]
    s = s[..., 0::2, :] + s[..., 1::2, :]
    s = s[..., 0, :] + s[..., 1, :]
    return s / float(V_REP * H_REP)


class _RealPaths(NamedTuple):
    """The real paths of a link dataset in the form encode works on."""

    raw: np.ndarray        # (N, 8, 25): link i's paths in its first columns, zero beyond
    virtual: np.ndarray    # (N, 25): the cells beyond them, which padding fills
    fspl_ref: np.ndarray   # (N,) free-space pathloss, dB
    delay_ref: np.ndarray  # (N,) straight-line delay, s
    is_los: np.ndarray     # (N,)
    dist2d: np.ndarray     # (N,)


def _gather(links) -> _RealPaths:
    if not links:
        raise DataError("empty link dataset")
    paths, counts = padded_paths([lk.paths for lk in links])
    if not counts.all():
        raise DataError(f"link {int(np.argmin(counts))} has zero paths; cannot encode it")
    n = len(links)
    raw = np.zeros((n, N_FEATURES, MAX_PATHS))
    raw[:, :PS + 1] = paths.transpose(0, 2, 1)
    # per-link references stay on the scalar closed forms of core, as in decode
    fspl_ref, delay_ref, dist2d = np.empty(n), np.empty(n), np.empty(n)
    for i, lk in enumerate(links):
        dist2d[i], dist3d = geometry(lk.tx, lk.rx)
        fspl_ref[i] = fspl(dist3d, lk.carrier_freq)
        delay_ref[i] = dist3d / SPEED_OF_LIGHT
    is_los = np.array([lk.link_state is LinkState.LOS for lk in links])
    return _RealPaths(raw, np.arange(MAX_PATHS) >= counts[:, None], fspl_ref, delay_ref,
                      is_los, dist2d)


def _prescale(real: _RealPaths, virtual_ranges, eps: float, rng) -> np.ndarray:
    """Padded, re-referenced (N, 8, 25) matrices, before Min-Max scaling.

    Virtual delay/angle/phase values are uniform inside the dataset-wide
    real ranges; virtual pathloss is uniform in (181, 190) dB, strictly
    above the outage threshold.  Pathloss is re-referenced to FSPL and
    delay to the LOS delay, times 1e7.  The last row carries the link state,
    in (1-eps, 1] for LOS and [-1, -1+eps) otherwise, across all columns.
    """
    n = len(real.raw)
    virt = real.virtual
    values = np.empty_like(real.raw)
    values[:, PL] = np.where(virt, rng.uniform(VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH, (n, MAX_PATHS)),
                             real.raw[:, PL]) - real.fspl_ref[:, None]
    for row in range(DLY, PS + 1):
        lo, hi = virtual_ranges[row]
        values[:, row] = np.where(virt, rng.uniform(lo, hi, (n, MAX_PATHS)), real.raw[:, row])
    values[:, DLY] = (values[:, DLY] - real.delay_ref[:, None]) * DELAY_SCALE
    u = rng.uniform(0.0, eps, size=n)
    values[:, LS] = np.where(real.is_los, 1.0 - u, -1.0 + u)[:, None]
    return values


class ChannelImageCodec:
    """Fitted encode/decode bundle: virtual ranges + feature scaler."""

    def __init__(self, virtual_ranges, scaler: FeatureScaler, eps: float = LINK_STATE_EPS):
        self.virtual_ranges = np.asarray(virtual_ranges, dtype=np.float64)
        self.scaler = scaler
        self.eps = float(eps)
        self.delay_scale = DELAY_SCALE
        self.outage_threshold_db = OUTAGE_THRESHOLD_DB
        self.stats = {"delay_floored": 0, "pathloss_floored": 0}

    # -- encode ------------------------------------------------------------

    def encode(self, links, rng):
        """(images (N, 64, 50), conditions (N, 2)) of a link dataset.

        One padding realization is drawn from rng; conditions are each
        link's (dist2d, receiver height).  Clipped cells count in
        self.scaler.n_clipped.  An empty dataset, a link without paths and
        a receiver at height <= 0 are DataErrors.
        """
        real = _gather(links)
        height = np.array([lk.rx[2] for lk in links])
        low = np.flatnonzero(height <= 0.0)
        if low.size:
            raise DataError(f"link {low[0]}: receiver height {height[low[0]]} is not positive")
        images = tile(self.scaler.scale(_prescale(real, self.virtual_ranges, self.eps, rng)))
        return images, np.column_stack([real.dist2d, height])

    # -- decode ------------------------------------------------------------

    def decode(self, images, tx, rx, carrier_freq) -> list:
        """Invert the pipeline for a stack of images and strip virtual paths.

        images is (N, 64, 50); tx and rx are (N, 3) endpoint coordinates and
        carrier_freq is (N,), so image i decodes against link geometry i.
        Returns N LinkRecords in order.

        The link state is voted on the mean of the (un-scaled) last row;
        a LOS vote overwrites the first column with the closed-form LOS
        path.  Columns with pathloss above the outage threshold are
        dropped; if none survive the link is an Outage with zero paths.
        Decoded values from a generative model may leave their physical
        ranges, so angles are wrapped/clipped and delays floored at the
        straight-line propagation time (counted in self.stats over the
        kept columns).
        """
        images = np.asarray(images)
        n = len(images)
        tx = np.asarray(tx, dtype=np.float64)
        rx = np.asarray(rx, dtype=np.float64)
        carrier_freq = np.asarray(carrier_freq, dtype=np.float64)
        if tx.shape != (n, 3) or rx.shape != (n, 3) or carrier_freq.shape != (n,):
            raise DataError("decode needs (N, 3) tx/rx and (N,) carrier_freq per image")
        out = []
        for start in range(0, n, DECODE_CHUNK):
            block = slice(start, start + DECODE_CHUNK)
            out.extend(self._decode_block(images[block], tx[block].tolist(),
                                          rx[block].tolist(), carrier_freq[block].tolist()))
        return out

    def _decode_block(self, images, txs, rxs, freqs) -> list:
        images = np.asarray(images, dtype=np.float64)
        if not np.all(np.isfinite(images)):
            raise FormatError("channel image contains non-finite pixels")
        values = self.scaler.unscale(untile(images))  # (m, 8, 25)
        is_los = values[:, LS].mean(axis=-1) > 0.0

        # per-link references stay on the scalar closed forms of core, so the
        # decoded numbers match them bit for bit
        m = len(values)
        fspl_ref = np.empty(m)
        base_delay = np.empty(m)
        los_rows = []
        for i, (a, b, f) in enumerate(zip(txs, rxs, freqs)):
            _, dist3d = geometry(a, b)
            fspl_ref[i] = fspl(dist3d, f)
            base_delay[i] = dist3d / SPEED_OF_LIGHT
            if is_los[i]:
                los_rows.append(los_params(a, b, f).as_array())
        values[:, PL] += fspl_ref[:, None]
        values[:, DLY] = values[:, DLY] / self.delay_scale + base_delay[:, None]
        if los_rows:
            values[is_los, :PS + 1, 0] = los_rows

        keep = values[:, PL] <= self.outage_threshold_db  # (m, 25)
        self.stats["delay_floored"] += int(np.count_nonzero(
            keep & (values[:, DLY] < base_delay[:, None])))
        self.stats["pathloss_floored"] += int(np.count_nonzero(keep & (values[:, PL] <= 0.0)))
        values[:, DLY] = np.maximum(values[:, DLY], base_delay[:, None])
        values[:, PL] = np.maximum(values[:, PL], 1e-9)
        values[:, AOD] = wrap_azimuth(values[:, AOD])
        values[:, AOA] = wrap_azimuth(values[:, AOA])
        values[:, ZOD] = np.clip(values[:, ZOD], 0.0, 180.0)
        values[:, ZOA] = np.clip(values[:, ZOA], 0.0, 180.0)
        values[:, PS] = wrap_phase(values[:, PS])

        # stable sort keeps the LOS overwrite (leftmost column, minimum
        # possible delay after flooring) in first position; dropped columns
        # sort last and are cut off by the per-link count
        order = np.argsort(np.where(keep, values[:, DLY], np.inf), axis=-1, kind="stable")
        cols = np.take_along_axis(values[:, :PS + 1], order[:, None, :], axis=-1)
        counts = np.count_nonzero(keep, axis=-1).tolist()
        rows = cols.transpose(0, 2, 1).tolist()  # (m, 25, 7) path rows

        out = []
        for i in range(m):
            if counts[i] == 0:
                state, paths = LinkState.OUTAGE, []
            else:
                state = LinkState.LOS if is_los[i] else LinkState.NLOS
                paths = [PathParams(*p) for p in rows[i][:counts[i]]]
            out.append(LinkRecord(tx=txs[i], rx=rxs[i], carrier_freq=freqs[i],
                                  link_state=state, paths=paths))
        return out

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "epsilon": self.eps,
            "delay_scale": self.delay_scale,
            "outage_threshold_db": self.outage_threshold_db,
            "virtual_min": self.virtual_ranges[:, 0].tolist(),
            "virtual_max": self.virtual_ranges[:, 1].tolist(),
            **self.scaler.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelImageCodec":
        codec = cls(
            np.stack([d["virtual_min"], d["virtual_max"]], axis=1),
            FeatureScaler.from_dict(d),
            eps=d["epsilon"],
        )
        if d["delay_scale"] != codec.delay_scale:
            raise FormatError("unsupported delay_scale in codec file")
        if d["outage_threshold_db"] != codec.outage_threshold_db:
            raise FormatError("unsupported outage threshold in codec file")
        return codec


def fit_codec(links, rng, eps: float = LINK_STATE_EPS) -> ChannelImageCodec:
    """Fit virtual-path ranges and the feature scaler on a dataset.

    The virtual ranges are the min/max of each feature over the real paths
    (the pathloss row is informational, the link-state row nominally
    (-1, 1)).  The scaler is fitted after padding and re-referencing, with
    one padding realization drawn from rng in encode's order, so virtual
    values are in-range by construction.
    """
    real = _gather(links)
    cells = real.raw[:, :PS + 1].transpose(0, 2, 1)[~real.virtual]  # (paths, 7)
    ranges = np.empty((N_FEATURES, 2))
    ranges[:PS + 1, 0] = cells.min(axis=0)
    ranges[:PS + 1, 1] = cells.max(axis=0)
    ranges[LS] = (-1.0, 1.0)
    values = _prescale(real, ranges, eps, rng)
    return ChannelImageCodec(ranges, FeatureScaler(values.min(axis=(0, 2)),
                                                   values.max(axis=(0, 2))), eps)
