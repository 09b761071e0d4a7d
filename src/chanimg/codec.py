"""Invertible mapping between link tables and 8x25 channel matrices.

Encode pipeline, run over a dataset one block of links at a time:
  1. pad each link's #paths x 8 features to a fixed 8x25 matrix with "virtual"
     paths: delays drawn uniformly inside the dataset's real range, angles
     and phase over their domains, pathloss in (181, 190) dB so anything
     above the 180 dB outage threshold marks a column as virtual;
  2. re-reference pathloss to free-space loss and delay to the LOS delay
     (times 1e7 so delays land in a workable numeric range), and encode the
     link state as a value near +1 (LOS) or -1 (NLOS/Outage);
  3. Min-Max scale each feature row into [-1, 1]: pathloss and delay over
     ranges fitted to span the real cells and every value a virtual cell
     can take, the other rows over their fixed domains (FIXED_ROWS);
  4. render (display only): tile shows a matrix as the paper's 64x50
     channel image, each cell an 8x2 pixel block.

The scaled (N, 8, 25) matrix of step 3 is the encoded form: CHIM files
store it, the generative backends model it and decode reads it.  The
rendered image carries no value the matrix lacks, so no stage stores or
reads it.

Each link takes 8 x 25 uniform draws from rng in turn (real cells draw too
and discard theirs), so the draws do not depend on how many links are
padded at once.  Encode and decode work BLOCK links at a time, and the
CLI's round-trip report compares one block at a time, so no stage holds a
padded copy of the whole table.  fit_codec draws nothing: its bounds are the
draws' own expressions at the smallest and largest uniform double.

Decode runs the exact inverse (inverse scaling, add the references back),
votes the link state on the mean of the last row, overwrites the first
column with the closed-form LOS path when the vote is LOS, and strips every
column whose pathloss exceeds the outage threshold.  Every step is exact up
to float64 rounding, so decode(encode(link)) recovers the real paths.

Azimuths are kept absolute for now.  Relative to the LOS bearing they
would still invert: decode takes the geometry table, and core.closed_forms
gives each link's bearing.
"""

import dataclasses
import math

import numpy as np

from .core import (
    MATRIX_SHAPE,
    MAX_PATHS,
    OUTAGE_THRESHOLD_DB,
    SPEED_OF_LIGHT,
    LinkState,
    LinkTable,
    wrap_azimuth,
    wrap_phase,
)
from .errors import DataError, FormatError, GeometryError

__all__ = [
    "FeatureScaler",
    "ChannelImageCodec",
    "MATRIX_SHAPE",
    "tile",
    "fit_codec",
]

N_FEATURES = MATRIX_SHAPE[0]
PL, DLY, AOD, ZOD, AOA, ZOA, PS, LS = range(N_FEATURES)

V_REP, H_REP = 8, 2  # pixel rows / columns per cell of the 64x50 rendering

DELAY_SCALE = 1e7
VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH = 181.0, 190.0
LINK_STATE_EPS = 0.01
BLOCK = 256  # links per encode and decode block; bounds their working memory
U_MAX = 1.0 - 2.0**-53  # the largest double a Generator's random() returns
# the scaler rows from aod on, which do not depend on the data: core's angle
# and phase domains, where virtual cells are drawn, and the link state's (-1, 1)
FIXED_ROWS = ((-180.0, 180.0), (0.0, 180.0), (-180.0, 180.0), (0.0, 180.0), (-360.0, 0.0),
              (-1.0, 1.0))


class FeatureScaler:
    """Per-feature Min-Max scaling of the padded, re-referenced tensor.

    Maps each feature row affinely so its min/max land on -1/+1 exactly.
    Values outside a row's range (possible at inference time) are clamped
    and counted in n_clipped rather than rejected.
    """

    def __init__(self, feature_min, feature_max):
        self.feature_min = np.asarray(feature_min, dtype=np.float64)
        self.feature_max = np.asarray(feature_max, dtype=np.float64)
        self.n_clipped = 0

    def _bounds(self, rows):
        """(min, max) of the feature rows, shaped to broadcast over their cells."""
        return self.feature_min[rows, None], self.feature_max[rows, None]

    def scale(self, values: np.ndarray, out=None) -> np.ndarray:
        """Scale raw (..., 8, 25) feature stacks.

        The result is written into out when it is given, which may be values
        itself (encode scales its padded blocks in place), and into a new
        float64 array otherwise; values is then left as it is.  Either way
        the steps are subtract, x2, divide by the span, -1 and clip, so the
        bytes do not depend on out.
        """
        lo, hi = self._bounds(slice(None))
        # lo < hi, so no cell is counted twice
        self.n_clipped += int(np.count_nonzero(values < lo)) + int(np.count_nonzero(values > hi))
        x = np.subtract(values, lo, out=out)
        x *= 2.0
        x /= hi - lo
        x -= 1.0
        return np.clip(x, -1.0, 1.0, out=x)

    def unscale(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The raw feature rows of scaled ones.

        rows picks the features x holds on its next-to-last axis; one row
        index takes x whose last axis is that row's cells.
        """
        self.n_clipped += int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        x = np.clip(x, -1.0, 1.0)
        lo, hi = self._bounds(rows)
        return lo + (x + 1.0) * 0.5 * (hi - lo)


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


def _virtual_band(virtual_delay):
    """(low (8,), span (8,)) of the padding draws, row by row.

    A virtual cell of row r is low[r] + span[r] u for a uniform u in [0, 1):
    pathloss in (181, 190) dB, delay inside virtual_delay, the (min, max) of
    the real delays, and angles and phase over their FIXED_ROWS.  The
    link-state row keeps u itself (low 0, span 1).
    """
    low, high = np.array([(VIRTUAL_PL_LOW, VIRTUAL_PL_HIGH), virtual_delay, *FIXED_ROWS[:-1],
                          (0.0, 1.0)]).T
    return low, high - low


def _prescaled(table: LinkTable, virtual_delay, rng):
    """Yield (links, (m, 8, 25) values) of the padded, re-referenced matrices, block by block.

    links is the slice of table's links a block holds, BLOCK at a time in
    table order.  A virtual cell is low + span u of its own uniform draw u
    (see _virtual_band), so virtual pathloss lies strictly above the outage
    threshold.  Pathloss is re-referenced to FSPL and delay to the LOS
    delay, times 1e7.  The last row carries the link state across all
    columns, 1 - eps u for LOS and -1 + eps u otherwise, eps being
    LINK_STATE_EPS and u the draw of the row's first cell.  The values are
    before Min-Max scaling.

    Each block draws rng.random, 200 doubles per link, link after link, so
    the draws do not depend on the block size.
    """
    n, offsets = len(table), table.offsets
    # per cell of a link's 200: one pass over whole links is faster than 7 passes over rows
    low, span = (np.repeat(x, MAX_PATHS) for x in _virtual_band(virtual_delay))
    for start in range(0, n, BLOCK):
        links = slice(start, min(n, start + BLOCK))
        m, counts = links.stop - start, table.counts[links]
        values = rng.random((m, N_FEATURES * MAX_PATHS))
        values *= span
        values += low
        values = values.reshape(m, N_FEATURES, MAX_PATHS)
        # each real path row over its link's leading columns
        link = np.repeat(np.arange(m), counts)
        column = np.arange(len(link)) - (offsets[links] - offsets[start])[link]
        values[link, :PS + 1, column] = table.paths[offsets[start]:offsets[links.stop]]
        values[:, PL] -= table.fspl[links, None]
        values[:, DLY] -= table.dist3d[links, None] / SPEED_OF_LIGHT
        values[:, DLY] *= DELAY_SCALE
        u = LINK_STATE_EPS * values[:, LS, :1]
        values[:, LS] = np.where(table.state[links, None] == LinkState.LOS, 1.0 - u, -1.0 + u)
        yield links, values


class ChannelImageCodec:
    """Fitted encode/decode bundle: the fitted ranges and the feature scaler.

    pathloss and delay are the (min, max) of those scaler rows, FIXED_ROWS
    the others; virtual delays are drawn in virtual_delay (s).  A scaler
    row whose max is not above its min is a DataError.
    """

    def __init__(self, pathloss, delay, virtual_delay):
        for name, (lo, hi) in (("pathloss", pathloss), ("delay", delay)):
            if not hi > lo:
                raise DataError(f"degenerate feature '{name}': max <= min")
        self.scaler = FeatureScaler(*np.array([pathloss, delay, *FIXED_ROWS]).T)
        self.virtual_delay = tuple(map(float, virtual_delay))
        self.stats = {"delay_floored": 0, "pathloss_floored": 0}

    # -- encode ------------------------------------------------------------

    def encode(self, table: LinkTable, rng, out=None):
        """(matrices (N, 8, 25), conditions (N, 2)) of a link table.

        One padding realization is drawn from rng; conditions are each
        link's (dist2d, receiver height).  The matrices are written into out
        when it is given and into a new float64 array otherwise; each block
        is scaled in float64 and then stored, so a float32 out holds the
        float64 matrices' values rounded once.  Clipped cells count in
        self.scaler.n_clipped.  An empty table, a link without paths and a
        receiver at height <= 0 are DataErrors.
        """
        if out is None:
            out = np.empty((len(table), *MATRIX_SHAPE))
        for links, matrices in self.encode_blocks(table, rng):
            out[links] = matrices
        return out, table.conditions

    def encode_blocks(self, table: LinkTable, rng):
        """Yield (links, (m, 8, 25) float64 matrices) of the table, block by block.

        links is the slice of the table the block's matrices encode, in
        table order; the blocks together are encode's matrices, from the
        same draws, with the same clip counts and DataErrors.
        """
        _require_paths(table)
        low = np.flatnonzero(table.height <= 0.0)
        if low.size:
            raise DataError(f"link {low[0]}: receiver height {table.height[low[0]]} "
                            "is not positive")
        for links, values in _prescaled(table, self.virtual_delay, rng):
            yield links, self.scaler.scale(values, out=values)

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
        n = len(matrices)
        blocks = [slice(i, min(n, i + BLOCK)) for i in range(0, n, BLOCK)]
        # a first pass over the pathloss and link-state rows sizes the output
        # rows; the second counts every clipped cell, once
        clipped, counts = self.scaler.n_clipped, np.empty(n, dtype=np.intp)
        for block in blocks:
            _, _, keep = self._vote(matrices[block], table.take(block), block.start)
            counts[block] = np.count_nonzero(keep, axis=-1)
        self.scaler.n_clipped = clipped
        decoded = dataclasses.replace(table, paths=np.empty((counts.sum(), PS + 1)),
                                      counts=counts, state=np.empty(n, dtype=np.uint8))
        offsets = decoded.offsets
        for block in blocks:
            self._decode_block(matrices[block], table.take(block), block.start,
                               decoded.paths[offsets[block.start]:offsets[block.stop]],
                               decoded.state[block])
        return decoded

    def _vote(self, matrices, geo: LinkTable, start: int):
        """(is_los (m,), pathloss (m, 25) dB, keep (m, 25)) of one block of matrices.

        is_los is the link-state vote; pathloss is the un-scaled pathloss
        row with the free-space loss added back and, on a LOS vote, the
        closed-form LOS path's in the first column; keep marks the columns
        decode keeps as paths, those at or below the outage threshold.  A
        non-finite cell and a LOS vote on a link without a LOS path are
        errors naming the block's first such matrix.
        """
        matrices = np.asarray(matrices, dtype=np.float64)
        if not np.all(np.isfinite(matrices)):
            raise FormatError("channel matrix contains non-finite values")
        is_los = self.scaler.unscale(matrices[:, LS], LS).mean(axis=-1) > 0.0
        no_los = np.flatnonzero(is_los & np.isnan(geo.los[:, PL]))
        if no_los.size:
            raise GeometryError(f"matrix {start + no_los[0]}: LOS vote on a link "
                                "without a closed-form LOS path")
        pathloss = self.scaler.unscale(matrices[:, PL], PL)
        pathloss += geo.fspl[:, None]
        pathloss[is_los, 0] = geo.los[is_los, PL]
        return is_los, pathloss, pathloss <= OUTAGE_THRESHOLD_DB

    def _decode_block(self, matrices, geo: LinkTable, start: int, paths, state):
        """Decode one block into its path rows (counts.sum(), 7) and its state (m,)."""
        matrices = np.asarray(matrices, dtype=np.float64)
        is_los, pathloss, keep = self._vote(matrices, geo, start)
        values = np.empty((len(matrices), PS + 1, MAX_PATHS))  # (m, 7, 25)
        values[:, PL] = pathloss
        values[:, DLY:] = self.scaler.unscale(matrices[:, DLY:PS + 1], slice(DLY, PS + 1))
        base_delay = geo.dist3d / SPEED_OF_LIGHT
        values[:, DLY] = values[:, DLY] / DELAY_SCALE + base_delay[:, None]
        values[is_los, DLY:, 0] = geo.los[is_los, DLY:]

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
        # sort last, past the per-link count
        order = np.argsort(np.where(keep, values[:, DLY], np.inf), axis=-1, kind="stable")
        counts = np.count_nonzero(keep, axis=-1)
        # (m, 7, 25) sorted features as (m, 25, 7) path rows, the kept ones first
        rows = np.take_along_axis(values, order[:, None, :], axis=-1).transpose(0, 2, 1)
        paths[...] = rows[np.arange(MAX_PATHS) < counts[:, None]]
        state[...] = np.where(counts == 0, LinkState.OUTAGE,
                              np.where(is_los, LinkState.LOS, LinkState.NLOS))

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """The fitted ranges: the pathloss and delay scaler rows and virtual_delay."""
        rows = np.column_stack([self.scaler.feature_min, self.scaler.feature_max]).tolist()
        return {"pathloss": rows[PL], "delay": rows[DLY], "virtual_delay": [*self.virtual_delay]}

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelImageCodec":
        """The codec of a to_dict document; _range makes a malformed range a FormatError."""
        return cls(*(_range(d, key) for key in ("pathloss", "delay", "virtual_delay")))


def _range(d: dict, key: str) -> list:
    """A codec range as 2 finite floats, min and max, a finite span apart."""
    values = d[key]
    try:
        if isinstance(values, list) and all(type(v) in (int, float) for v in values):  # no bool
            values = [float(v) for v in values]
            if len(values) == 2 and all(map(math.isfinite, [*values, values[1] - values[0]])):
                return values
    except OverflowError:  # an integer too large for a float
        pass
    raise FormatError(f"{key} must be 2 finite numbers [min, max] a finite span apart, "
                      f"got {d[key]!r}")


def fit_codec(table: LinkTable) -> ChannelImageCodec:
    """Fit the pathloss and delay scaler rows and the virtual delay band, in closed form.

    The band is the min/max of the real delays.  Each row spans the
    re-referenced real cells and the extremes of the virtual cells:
    _prescaled's own float expressions at u = 0 and u = U_MAX, re-referenced
    to the extreme FSPL and LOS delay.  Rounding keeps them monotone in u
    and in the reference, so no padding realization clips.
    """
    _require_paths(table)
    virtual_delay = table.paths[:, DLY].min(), table.paths[:, DLY].max()
    low, span = _virtual_band(virtual_delay)
    top = low + span * U_MAX
    base = table.dist3d / SPEED_OF_LIGHT
    pathloss = table.paths[:, PL] - np.repeat(table.fspl, table.counts)
    delay = (table.paths[:, DLY] - np.repeat(base, table.counts)) * DELAY_SCALE
    return ChannelImageCodec(
        (min(pathloss.min(), low[PL] - table.fspl.max()),
         max(pathloss.max(), top[PL] - table.fspl.min())),
        (min(delay.min(), (low[DLY] - base.max()) * DELAY_SCALE),
         max(delay.max(), (top[DLY] - base.min()) * DELAY_SCALE)),
        virtual_delay)
