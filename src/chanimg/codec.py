"""Invertible mapping between link tables and 8x25 channel matrices.

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
  4. render (display only): tile shows a matrix as the paper's 64x50
     channel image, each cell an 8x2 pixel block.

The scaled (N, 8, 25) matrix of step 3 is the encoded form: CHIM files
store it, the generative backends model it and decode reads it.  The
rendered image carries no value the matrix lacks, so no stage stores or
reads it.

The padding draws come from one rng in a fixed order: a (N, 25) block of
virtual pathloss, then one (N, 25) block per row from delay to phase (cells
of real paths draw too and discard the value), then one link-state draw per
link.

Decode runs the exact inverse (inverse scaling, add the references back),
votes the link state on the mean of the last row, overwrites the first
column with the closed-form LOS path when the vote is LOS, and strips every
column whose pathloss exceeds the outage threshold.  Every step is exact up
to float64 rounding, so decode(encode(link)) recovers the real paths.

Angles are kept absolute, not relative to the LOS direction: with only
(dist2d, height) as conditions the LOS azimuth is not recoverable, so
relative azimuths would make the pipeline non-invertible.
"""

import dataclasses
import math

import numpy as np

from .core import (
    MAX_PATHS,
    SPEED_OF_LIGHT,
    LinkState,
    LinkTable,
    wrap_azimuth,
    wrap_phase,
)
from .errors import DataError, FormatError, GeometryError

__all__ = [
    "FEATURES",
    "FeatureScaler",
    "ChannelImageCodec",
    "MATRIX_SHAPE",
    "tile",
    "fit_codec",
]

FEATURES = ("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase", "link_state")
N_FEATURES = 8
PL, DLY, AOD, ZOD, AOA, ZOA, PS, LS = range(N_FEATURES)

MATRIX_SHAPE = (N_FEATURES, MAX_PATHS)  # the encoded form: features x paths
V_REP, H_REP = 8, 2  # pixel rows / columns per cell of the 64x50 rendering

DELAY_SCALE = 1e7
OUTAGE_THRESHOLD_DB = 180.0
VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH = 181.0, 190.0
LINK_STATE_EPS = 0.01
DECODE_CHUNK = 256  # matrices per decode block; bounds decode's working memory


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


def tile(values: np.ndarray) -> np.ndarray:
    """Render (..., 8, 25) matrices as 64x50 images: each cell an 8x2 pixel block."""
    if values.shape[-2:] != MATRIX_SHAPE:
        raise DataError(f"channel matrix must be {N_FEATURES}x{MAX_PATHS}")
    return np.repeat(np.repeat(values, V_REP, axis=-2), H_REP, axis=-1)


def _require_paths(table: LinkTable):
    if not len(table):
        raise DataError("empty link dataset")
    if not table.counts.all():
        raise DataError(f"link {int(np.argmin(table.counts))} has zero paths; cannot encode it")


def _prescale(table: LinkTable, virtual_ranges, eps: float, rng) -> np.ndarray:
    """Padded, re-referenced (N, 8, 25) matrices, before Min-Max scaling.

    Virtual delay/angle/phase values are uniform inside the dataset-wide
    real ranges; virtual pathloss is uniform in (181, 190) dB, strictly
    above the outage threshold.  Pathloss is re-referenced to FSPL and
    delay to the LOS delay, times 1e7.  The last row carries the link state,
    in (1-eps, 1] for LOS and [-1, -1+eps) otherwise, across all columns.
    """
    n = len(table)
    raw = table.paths.transpose(0, 2, 1)  # (N, 7, 25)
    virt = ~table.valid
    values = np.empty((n, N_FEATURES, MAX_PATHS))
    values[:, PL] = np.where(virt, rng.uniform(VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH, (n, MAX_PATHS)),
                             raw[:, PL]) - table.fspl[:, None]
    for row in range(DLY, PS + 1):
        lo, hi = virtual_ranges[row]
        values[:, row] = np.where(virt, rng.uniform(lo, hi, (n, MAX_PATHS)), raw[:, row])
    values[:, DLY] = (values[:, DLY] - table.dist3d[:, None] / SPEED_OF_LIGHT) * DELAY_SCALE
    u = rng.uniform(0.0, eps, size=n)
    values[:, LS] = np.where(table.state == LinkState.LOS, 1.0 - u, -1.0 + u)[:, None]
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

    def encode(self, table: LinkTable, rng):
        """(matrices (N, 8, 25) float64, conditions (N, 2)) of a link table.

        One padding realization is drawn from rng; conditions are each
        link's (dist2d, receiver height).  Clipped cells count in
        self.scaler.n_clipped.  An empty table, a link without paths and
        a receiver at height <= 0 are DataErrors.
        """
        _require_paths(table)
        low = np.flatnonzero(table.height <= 0.0)
        if low.size:
            raise DataError(f"link {low[0]}: receiver height {table.height[low[0]]} "
                            "is not positive")
        matrices = self.scaler.scale(_prescale(table, self.virtual_ranges, self.eps, rng))
        return matrices, np.column_stack([table.dist2d, table.height])

    # -- decode ------------------------------------------------------------

    def decode(self, matrices, table: LinkTable) -> LinkTable:
        """Invert the pipeline for a stack of matrices and strip virtual paths.

        matrices is (N, 8, 25) (a DataError otherwise, and so is N = 0) and
        table has N rows: matrix i decodes against the geometry of table
        row i.  Returns the decoded table: the paths, counts and states
        decode, and every geometry column of table as it is.

        The link state is voted on the mean of the (un-scaled) last row;
        a LOS vote overwrites the first column with the closed-form LOS
        path, and is a GeometryError on a link without one.  Columns with
        pathloss above the outage threshold are dropped; if none survive
        the link is an Outage with zero paths.  Decoded values from a
        generative model may leave their physical ranges, so angles are
        wrapped/clipped and delays floored at the straight-line propagation
        time (counted in self.stats over the kept columns).
        """
        matrices = np.asarray(matrices)
        if matrices.ndim != 3 or matrices.shape[1:] != MATRIX_SHAPE:
            raise DataError(f"decode needs (N, {N_FEATURES}, {MAX_PATHS}) channel matrices, "
                            f"got shape {matrices.shape}")
        if len(table) != len(matrices):
            raise DataError("decode needs one geometry row per matrix")
        if not len(matrices):
            raise DataError("empty link dataset")
        blocks = [self._decode_block(matrices[start:start + DECODE_CHUNK],
                                     table.take(slice(start, start + DECODE_CHUNK)), start)
                  for start in range(0, len(matrices), DECODE_CHUNK)]
        paths, counts, state = (np.concatenate(parts) for parts in zip(*blocks))
        return dataclasses.replace(table, paths=paths, counts=counts, state=state)

    def _decode_block(self, matrices, geo: LinkTable, start: int):
        """(paths (m, 25, 7), counts (m,), states (m,)) of one block."""
        matrices = np.asarray(matrices, dtype=np.float64)
        if not np.all(np.isfinite(matrices)):
            raise FormatError("channel matrix contains non-finite values")
        values = self.scaler.unscale(matrices)  # (m, 8, 25)
        is_los = values[:, LS].mean(axis=-1) > 0.0
        no_los = np.flatnonzero(is_los & np.isnan(geo.los[:, PL]))
        if no_los.size:
            raise GeometryError(f"matrix {start + no_los[0]}: LOS vote on a link "
                                "without a closed-form LOS path")

        base_delay = geo.dist3d / SPEED_OF_LIGHT
        values[:, PL] += geo.fspl[:, None]
        values[:, DLY] = values[:, DLY] / self.delay_scale + base_delay[:, None]
        values[is_los, :PS + 1, 0] = geo.los[is_los]

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
        # sort last, past the per-link count, and are zeroed
        order = np.argsort(np.where(keep, values[:, DLY], np.inf), axis=-1, kind="stable")
        paths = np.take_along_axis(values[:, :PS + 1], order[:, None, :], axis=-1)
        paths = paths.transpose(0, 2, 1)  # (m, 25, 7) path rows
        counts = np.count_nonzero(keep, axis=-1)
        paths[np.arange(MAX_PATHS) >= counts[:, None]] = 0.0
        state = np.where(is_los, LinkState.LOS, LinkState.NLOS)
        return paths, counts, np.where(counts == 0, LinkState.OUTAGE, state)

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
        """The codec of a to_dict document.

        Each of the four range lists must hold 8 finite numbers, with
        finite spans, and epsilon must be a number in (0, 1); anything else
        is a FormatError.
        """
        rows = {key: _range_list(d, key)
                for key in ("virtual_min", "virtual_max", "feature_min", "feature_max")}
        for lo, hi in (("virtual_min", "virtual_max"), ("feature_min", "feature_max")):
            if not all(math.isfinite(b - a) for a, b in zip(rows[lo], rows[hi])):
                raise FormatError(f"{lo} to {hi} spans more than a float holds")
        eps = d["epsilon"]
        if not (type(eps) in (int, float) and 0.0 < eps < 1.0):
            raise FormatError(f"epsilon must be a number in (0, 1), got {eps!r}")
        codec = cls(np.stack([rows["virtual_min"], rows["virtual_max"]], axis=1),
                    FeatureScaler(rows["feature_min"], rows["feature_max"]), eps=eps)
        if d["delay_scale"] != codec.delay_scale:
            raise FormatError("unsupported delay_scale in codec file")
        if d["outage_threshold_db"] != codec.outage_threshold_db:
            raise FormatError("unsupported outage threshold in codec file")
        return codec


def _range_list(d: dict, key: str) -> list:
    """A codec range list as 8 finite floats; FormatError otherwise."""
    values = d[key]
    try:
        if isinstance(values, list) and all(type(v) in (int, float) for v in values):  # no bool
            values = [float(v) for v in values]
            if len(values) == N_FEATURES and all(map(math.isfinite, values)):
                return values
    except OverflowError:  # an integer too large for a float
        pass
    raise FormatError(f"{key} must be a list of {N_FEATURES} finite numbers, got {d[key]!r}")


def fit_codec(table: LinkTable, rng, eps: float = LINK_STATE_EPS) -> ChannelImageCodec:
    """Fit virtual-path ranges and the feature scaler on a link table.

    The virtual ranges are the min/max of each feature over the real paths
    (the pathloss row is informational, the link-state row nominally
    (-1, 1)).  The scaler is fitted after padding and re-referencing, with
    one padding realization drawn from rng in encode's order, so virtual
    values are in-range by construction.
    """
    _require_paths(table)
    cells = table.paths[table.valid]  # (paths, 7)
    ranges = np.empty((N_FEATURES, 2))
    ranges[:PS + 1, 0] = cells.min(axis=0)
    ranges[:PS + 1, 1] = cells.max(axis=0)
    ranges[LS] = (-1.0, 1.0)
    values = _prescale(table, ranges, eps, rng)
    return ChannelImageCodec(ranges, FeatureScaler(values.min(axis=(0, 2)),
                                                   values.max(axis=(0, 2))), eps)
