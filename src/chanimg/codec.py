"""Invertible mapping between link records and 64x50 channel images.

Encode pipeline, per link:
  1. pad the #paths x 8 features to a fixed 8x25 matrix with "virtual"
     paths: non-pathloss features drawn uniformly inside the dataset's real
     ranges, virtual pathloss drawn in (181, 190) dB so anything above the
     180 dB outage threshold marks a column as virtual;
  2. re-reference pathloss to free-space loss and delay to the LOS delay
     (times 1e7 so delays land in a workable numeric range), and encode the
     link state as a value near +1 (LOS) or -1 (NLOS/Outage);
  3. Min-Max scale each feature row into [-1, 1] with ranges fitted over
     the whole padded tensor;
  4. tile every matrix cell into an 8x2 pixel block, giving 64x50.

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

from dataclasses import dataclass

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
    wrap_azimuth,
    wrap_phase,
)
from .errors import DataError, FormatError

__all__ = [
    "FEATURES",
    "ChannelMatrix",
    "FeatureScaler",
    "ChannelImageCodec",
    "raw_feature_ranges",
    "pad_virtual_paths",
    "normalize_link_features",
    "fit_scaler",
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


@dataclass
class ChannelMatrix:
    """8x25 feature matrix of one link, raw or scaled into [-1, 1]."""

    values: np.ndarray
    scaled: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (N_FEATURES, MAX_PATHS):
            raise DataError(f"channel matrix must be {N_FEATURES}x{MAX_PATHS}")


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

    @classmethod
    def fit(cls, matrices) -> "FeatureScaler":
        if not matrices:
            raise DataError("cannot fit scaler on an empty dataset")
        stack = np.stack([m.values for m in matrices])
        return cls(stack.min(axis=(0, 2)), stack.max(axis=(0, 2)))

    def scale(self, matrix: ChannelMatrix) -> ChannelMatrix:
        if matrix.scaled:
            raise DataError("matrix is already scaled")
        x = self.scale_array(matrix.values)
        return ChannelMatrix(x, scaled=True)

    def scale_array(self, values: np.ndarray) -> np.ndarray:
        """Scale raw feature rows (works on (..., 8, 25) stacks)."""
        lo = self.feature_min[:, None]
        hi = self.feature_max[:, None]
        self.n_clipped += int(np.count_nonzero((values < lo) | (values > hi)))
        x = 2.0 * (values - lo) / (hi - lo) - 1.0
        return np.clip(x, -1.0, 1.0)

    def unscale(self, matrix: ChannelMatrix) -> ChannelMatrix:
        if not matrix.scaled:
            raise DataError("matrix is not scaled")
        return ChannelMatrix(self.unscale_array(matrix.values), scaled=False)

    def unscale_array(self, x: np.ndarray) -> np.ndarray:
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


def raw_feature_ranges(links) -> np.ndarray:
    """(8, 2) min/max of each feature over the REAL paths of a dataset.

    Rows delay..phase bound the uniform draws for virtual paths.  The
    pathloss row is informational (virtual pathloss has its own fixed
    range) and the link-state row is nominally (-1, 1).
    """
    if not links:
        raise DataError("cannot compute feature ranges of an empty dataset")
    cols = np.concatenate([np.stack([p.as_array() for p in lk.paths], axis=1)
                           for lk in links if lk.paths], axis=1)
    ranges = np.empty((N_FEATURES, 2))
    ranges[:PS + 1, 0] = cols.min(axis=1)
    ranges[:PS + 1, 1] = cols.max(axis=1)
    ranges[LS] = (-1.0, 1.0)
    return ranges


def pad_virtual_paths(link: LinkRecord, feature_ranges, rng,
                      eps: float = LINK_STATE_EPS) -> ChannelMatrix:
    """Pad a link's paths to a full 8x25 raw matrix with virtual columns.

    Virtual delay/angle/phase values are uniform inside the dataset-wide
    real ranges; virtual pathloss is uniform in (181, 190) dB, strictly
    above the outage threshold.  The last row carries the link state drawn
    in (1-eps, 1) for LOS and (-1, -1+eps) otherwise, replicated across all
    columns.
    """
    n = link.n_paths
    if n == 0:
        raise DataError("cannot encode a link with zero paths")
    if n > MAX_PATHS:
        raise DataError(f"link has {n} paths; keep the {MAX_PATHS} earliest before encoding")
    feature_ranges = np.asarray(feature_ranges, dtype=np.float64)

    values = np.empty((N_FEATURES, MAX_PATHS))
    values[:PS + 1, :n] = np.stack([p.as_array() for p in link.paths], axis=1)

    n_virtual = MAX_PATHS - n
    if n_virtual:
        values[PL, n:] = rng.uniform(VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH, size=n_virtual)
        for row in range(DLY, PS + 1):
            lo, hi = feature_ranges[row]
            values[row, n:] = rng.uniform(lo, hi, size=n_virtual)

    if link.link_state is LinkState.LOS:
        state_value = rng.uniform(1.0 - eps, 1.0)
    else:
        state_value = rng.uniform(-1.0, -1.0 + eps)
    values[LS, :] = state_value
    return ChannelMatrix(values, scaled=False)


def normalize_link_features(matrix: ChannelMatrix, link: LinkRecord) -> ChannelMatrix:
    """Re-reference pathloss/delay rows to the link's free-space values.

    pathloss -> pathloss - FSPL(dist3d, f); delay -> (delay - dist3d/c) * 1e7.
    Angles, phase and the link-state row pass through unchanged.
    """
    if matrix.scaled:
        raise DataError("normalize expects a raw matrix")
    _, dist3d = geometry(link.tx, link.rx)
    values = matrix.values.copy()
    values[PL] -= fspl(dist3d, link.carrier_freq)
    values[DLY] = (values[DLY] - dist3d / SPEED_OF_LIGHT) * DELAY_SCALE
    return ChannelMatrix(values, scaled=False)


def fit_scaler(matrices) -> FeatureScaler:
    """Min-Max ranges over a list of padded, re-referenced matrices."""
    return FeatureScaler.fit(matrices)


def tile(matrix: ChannelMatrix) -> np.ndarray:
    """Replicate each matrix cell 8x vertically and 2x horizontally."""
    if not matrix.scaled:
        raise DataError("tile expects a scaled matrix")
    return tile_array(matrix.values)


def tile_array(values: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(values, V_REP, axis=-2), H_REP, axis=-1)


def untile(image: np.ndarray) -> ChannelMatrix:
    """Block mean over each 8x2 pixel block; exact inverse of tile."""
    return ChannelMatrix(untile_array(image), scaled=True)


def untile_array(image: np.ndarray) -> np.ndarray:
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

    def encode_link(self, link: LinkRecord, rng) -> np.ndarray:
        """Full per-link pipeline: pad -> normalize -> scale -> tile."""
        raw = pad_virtual_paths(link, self.virtual_ranges, rng, self.eps)
        pre = normalize_link_features(raw, link)
        return tile(self.scaler.scale(pre))

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
        values = self.scaler.unscale_array(untile_array(images))  # (m, 8, 25)
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

    The scaler is fitted after padding and re-referencing (one padding
    realization drawn from rng), so virtual values are in-range by
    construction.
    """
    ranges = raw_feature_ranges(links)
    matrices = [
        normalize_link_features(pad_virtual_paths(lk, ranges, rng, eps), lk) for lk in links
    ]
    scaler = fit_scaler(matrices)
    return ChannelImageCodec(ranges, scaler, eps)


class DatasetEncoder:
    """Vectorized encoder for many links and padding realizations.

    Precomputes each link's normalized real columns once; every batch draw
    then only fills virtual cells, scales and tiles, which keeps streaming
    augmentation (fresh virtual padding per epoch) cheap during training.
    Matches encode_link cell-for-cell given the same rng draws are used in
    the same roles (verified in tests via distribution equality).
    """

    def __init__(self, links, codec: ChannelImageCodec):
        if not links:
            raise DataError("no links to encode")
        self.codec = codec
        n = len(links)
        self.norm_real = np.zeros((n, N_FEATURES, MAX_PATHS))
        self.real_mask = np.zeros((n, MAX_PATHS), dtype=bool)
        self.fspl_ref = np.empty(n)
        self.delay_ref = np.empty(n)
        self.is_los = np.empty(n, dtype=bool)
        self.conditions = np.empty((n, 2))
        for i, lk in enumerate(links):
            dist2d, dist3d = geometry(lk.tx, lk.rx)
            k = lk.n_paths
            cols = np.stack([p.as_array() for p in lk.paths], axis=1)
            self.norm_real[i, :PS + 1, :k] = cols
            self.norm_real[i, PL, :k] -= fspl(dist3d, lk.carrier_freq)
            self.norm_real[i, DLY, :k] = (
                self.norm_real[i, DLY, :k] - dist3d / SPEED_OF_LIGHT) * DELAY_SCALE
            self.real_mask[i, :k] = True
            self.fspl_ref[i] = fspl(dist3d, lk.carrier_freq)
            self.delay_ref[i] = dist3d / SPEED_OF_LIGHT
            self.is_los[i] = lk.link_state is LinkState.LOS
            self.conditions[i] = (dist2d, lk.rx[2])

    def __len__(self):
        return self.norm_real.shape[0]

    def encode_batch(self, indices, rng):
        """(images (B,64,50), conditions (B,2)) with fresh virtual padding."""
        idx = np.asarray(indices)
        b = idx.size
        values = self.norm_real[idx].copy()
        virt = ~self.real_mask[idx]  # (B, 25)

        # virtual pathloss, re-referenced per link
        pl = rng.uniform(VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH, size=(b, MAX_PATHS))
        pl -= self.fspl_ref[idx][:, None]
        values[:, PL][virt] = pl[virt]
        # virtual delay/angles/phase from the raw dataset ranges
        vr = self.codec.virtual_ranges
        for row in range(DLY, PS + 1):
            draw = rng.uniform(vr[row, 0], vr[row, 1], size=(b, MAX_PATHS))
            if row == DLY:
                draw = (draw - self.delay_ref[idx][:, None]) * DELAY_SCALE
            values[:, row][virt] = draw[virt]

        eps = self.codec.eps
        u = rng.uniform(0.0, eps, size=b)
        state = np.where(self.is_los[idx], 1.0 - u, -1.0 + u)
        values[:, LS, :] = state[:, None]

        lo = self.codec.scaler.feature_min[None, :, None]
        hi = self.codec.scaler.feature_max[None, :, None]
        scaled = np.clip(2.0 * (values - lo) / (hi - lo) - 1.0, -1.0, 1.0)
        return tile_array(scaled), self.conditions[idx]

    def encode_all(self, rng, realizations: int = 1):
        """Materialize all links x realizations (images, conditions)."""
        images = []
        conds = []
        idx = np.arange(len(self))
        for _ in range(realizations):
            im, co = self.encode_batch(idx, rng)
            images.append(im.astype(np.float32))
            conds.append(co)
        return np.concatenate(images), np.concatenate(conds)
