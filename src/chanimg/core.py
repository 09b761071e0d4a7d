"""Domain types for multipath channel parameters and deterministic LOS physics.

A link between a transmitter and a receiver carries up to MAX_PATHS
propagation paths, each described by seven features: pathloss (dB), delay
(s), azimuth/zenith angles of departure and arrival (deg) and arrival phase
(deg).  When the link is line-of-sight, the first-arrival path is fully
determined by the endpoint coordinates and the carrier frequency; those
closed forms live here.  LinkTable holds a dataset as columns: the real
path rows of every link, one link after the other, and per-link counts,
geometry and closed forms.  The codec and the stats read only that table,
and link_rules is the one statement of what a valid table holds.

Conventions:
  - azimuths in (-180, 180], zeniths in [0, 180], phases in (-360, 0]
  - zenith 0 points straight up, 90 is the horizon
  - all functions are pure; safe under any concurrency
"""

import numbers
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .errors import DataError, GeometryError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
MAX_PATHS = 25
PATH_FIELDS = ("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase")
# the codec's encoded form: a row per path field plus the link-state row, a column per path
MATRIX_SHAPE = (len(PATH_FIELDS) + 1, MAX_PATHS)
OUTAGE_THRESHOLD_DB = 180.0  # a path above this pathloss carries no power

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_PATHS",
    "MATRIX_SHAPE",
    "LinkState",
    "LinkTable",
    "PATH_FIELDS",
    "path_rules",
    "link_rules",
    "closed_forms",
    "los_rules",
    "wrap_azimuth",
    "wrap_phase",
]


class LinkState(IntEnum):
    """State of the first-arrival path, by code; Outage means no path at or below 180 dB."""

    LOS = 0
    NLOS = 1
    OUTAGE = 2


def is_int(v) -> bool:
    """An integer that is not a bool (a bool is an int to Python)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def wrap_azimuth(a):
    """Wrap an azimuth (deg) into (-180, 180]; exact no-op when already there."""
    a = np.asarray(a, dtype=float)
    wrapped = 180.0 - (180.0 - a) % 360.0
    out = np.where((a > -180.0) & (a <= 180.0), a, wrapped)
    return float(out) if out.ndim == 0 else out


def wrap_phase(p):
    """Wrap a phase (deg) into (-360, 0]; exact no-op when already there."""
    p = np.asarray(p, dtype=float)
    wrapped = -((-p) % 360.0) + 0.0  # +0.0 folds -0.0
    out = np.where((p > -360.0) & (p <= 0.0), p, wrapped)
    return float(out) if out.ndim == 0 else out


def path_rules(rows):
    """[(message, mask)] of the rules a path keeps, over (P, 7) path rows.

    Each mask is (P,) and True where a row breaks the rule, in the order
    link_rules reports them; a row that breaks none is a valid path.
    """
    finite = np.isfinite(rows[:, [0, 1, 2, 4]]).all(axis=1)  # pathloss, delay, aod, aoa
    return [
        ("pathloss, delay, aod and aoa must be finite", ~finite),
        ("pathloss must be positive", ~(rows[:, 0] > 0.0)),
        ("delay must be positive", ~(rows[:, 1] > 0.0)),
        ("aod out of (-180, 180]", ~((rows[:, 2] > -180.0) & (rows[:, 2] <= 180.0))),
        ("zod out of [0, 180]", ~((rows[:, 3] >= 0.0) & (rows[:, 3] <= 180.0))),
        ("aoa out of (-180, 180]", ~((rows[:, 4] > -180.0) & (rows[:, 4] <= 180.0))),
        ("zoa out of [0, 180]", ~((rows[:, 5] >= 0.0) & (rows[:, 5] <= 180.0))),
        ("phase out of (-360, 0]", ~((rows[:, 6] > -360.0) & (rows[:, 6] <= 0.0))),
    ]


def link_rules(paths, counts, state, ends):
    """[(message, mask)] of the rules a link keeps, over link columns.

    The columns are those of LinkTable.from_columns.  Each mask is (N,) and
    True where a link breaks the rule: first a rule of any of its path rows
    (path_rules), then the rules of the link itself.  The count rule is the
    only bound on how many rows a link has.
    """
    link = np.repeat(np.arange(len(counts)), counts)  # the link of each row

    def of_links(bad_rows):
        bad = np.zeros(len(counts), dtype=bool)
        bad[link[bad_rows]] = True
        return bad

    # a row whose delay is below the row before it, in the same link
    unsorted = np.zeros(len(paths), dtype=bool)
    unsorted[1:] = (np.diff(paths[:, 1]) < 0.0) & (link[1:] == link[:-1])
    return [(message, of_links(mask)) for message, mask in path_rules(paths)] + [
        ("coordinates and carrier_freq must be finite", ~np.isfinite(ends).all(axis=1)),
        ("carrier_freq must be positive", ~(ends[:, 6] > 0.0)),
        ("link_state must be LOS, NLOS or Outage", state > LinkState.OUTAGE),
        ("only Outage links may have zero paths", (counts == 0) & (state != LinkState.OUTAGE)),
        (f"at most {MAX_PATHS} paths per link", counts > MAX_PATHS),
        ("paths must be sorted ascending by delay", of_links(unsorted)),
    ]


def closed_forms(tx, rx, carrier_freq):
    """(dist2d, dist3d, fspl, los) of (N, 3) endpoints and (N,) carriers.

    The columns of los_rules, with each row of los that breaks one of its
    rules set to NaN: the link has no LOS path.
    """
    *forms, rules = los_rules(tx, rx, carrier_freq)
    forms[3][np.logical_or.reduce([bad for _, bad in rules])] = np.nan
    return tuple(forms)


def los_rules(tx, rx, carrier_freq):
    """(dist2d, dist3d, fspl, los, rules) of (N, 3) endpoints and (N,) carriers.

    dist2d may be 0 (a vertical link).  fspl is the free-space pathloss in
    dB, 20 log10(dist3d) + 20 log10(f) - 147.55.  los is the (N, 7)
    line-of-sight path in PATH_FIELDS order: pathloss is the
    free-space loss, delay is dist3d/c, the departure azimuth is the
    two-argument arctangent of (y_tx-y_rx, x_tx-x_rx), with -180 deg (a dy
    of -0.0, or one too small to count) read as 180, the arrival azimuth
    its back direction, the zenith of departure is measured from vertical
    at the transmitter (z_rx == z_tx gives the 90 deg horizon) and the
    zenith of arrival mirrors it.  Phase is the carrier rotation left over
    from whole cycles, in (-360, 0].  rules is [(message, mask)] of the
    rules a LOS row keeps, each mask (N,) and True where the row breaks
    it: a vertical link has no azimuth, then path_rules (e.g. a pathloss
    that is not positive, or a phase of a carrier rotation that overflows).

    Each row depends only on its own link.  GeometryError names the first
    link whose endpoints coincide, lie too far apart to measure, or whose
    carrier is not positive.
    """
    tx, rx = np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)
    freq = np.asarray(carrier_freq, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy, dz = (tx - rx).T
        dist2d = np.hypot(dx, dy)
        dist3d = np.hypot(dist2d, dz)
        for bad, why in ((dist3d == 0.0, "tx and rx coincide"),
                         (~np.isfinite(dist3d), "tx and rx too far apart"),
                         (~(freq > 0.0), "carrier_freq must be positive")):
            if bad.any():
                raise GeometryError(f"link {np.argmax(bad)}: {why}")
        fspl = 20.0 * np.log10(dist3d) + 20.0 * np.log10(freq) - 147.55
        delay = dist3d / SPEED_OF_LIGHT
        aod = wrap_azimuth(np.degrees(np.arctan2(dy, dx)))
        # a half turn staying inside (-180, 180]; exact in float64
        aoa = np.where(aod > 0.0, aod - 180.0, aod + 180.0)
        # atan2(dist2d, z_rx - z_tx) lands in [0, 180] directly, 90 when level
        zod = np.degrees(np.arctan2(dist2d, -dz))
        cycles = freq * delay
        phase = -360.0 * (cycles - np.floor(cycles)) + 0.0  # +0.0 folds -0.0
        los = np.column_stack([fspl, delay, aod, zod, aoa, 180.0 - zod, phase])
    return dist2d, dist3d, fspl, los, [("azimuth undefined for a vertical link", dist2d == 0.0),
                                       *path_rules(los)]


@dataclass
class LinkTable:
    """Per-link arrays of a link dataset: what encode, decode and eval read.

    paths holds the real path rows of every link, link after link, in
    PATH_FIELDS order: link i's counts[i] rows are paths[offsets[i]:
    offsets[i + 1]].  state holds each link's LinkState code, and ends its
    tx and rx coordinates and carrier frequency: the columns a dataset
    file stores.  fspl and dist3d give the free-space pathloss and delay
    references; los is the closed-form LOS path in PATH_FIELDS order, NaN
    where a link has none (see closed_forms).
    """

    paths: np.ndarray   # (P, 7), P = counts.sum()
    counts: np.ndarray  # (N,)
    state: np.ndarray   # (N,) uint8 LinkState codes
    ends: np.ndarray    # (N, 7) tx (3), rx (3), carrier_freq
    dist2d: np.ndarray  # (N,)
    dist3d: np.ndarray  # (N,)
    fspl: np.ndarray    # (N,) dB
    los: np.ndarray     # (N, 7)

    @classmethod
    def from_columns(cls, paths, counts, state, ends) -> "LinkTable":
        """The table of non-empty link columns, state as uint8, with the closed forms filled in.

        An empty table is a DataError; closed_forms' GeometryError names a
        link whose endpoints coincide.
        """
        if not len(counts):
            raise DataError("empty link dataset")
        return cls(paths, counts, np.asarray(state, np.uint8), ends,
                   *closed_forms(ends[:, :3], ends[:, 3:6], ends[:, 6]))

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def offsets(self) -> np.ndarray:
        """(N + 1,) row bounds of the links in paths."""
        out = np.zeros(len(self.counts) + 1, dtype=np.intp)
        np.cumsum(self.counts, out=out[1:])
        return out

    def take(self, rows) -> "LinkTable":
        """The table of the links rows selects: a slice, a boolean mask or indices.

        Indices may repeat.  A slice of step 1 keeps a view of the path
        rows; any other selection gathers them.
        """
        cols = {f.name: getattr(self, f.name)[rows] for f in fields(self) if f.name != "paths"}
        offsets = self.offsets
        if isinstance(rows, slice) and rows.step in (None, 1):
            start, stop, _ = rows.indices(len(self))
            return LinkTable(self.paths[offsets[start]:offsets[max(start, stop)]], **cols)
        counts = cols["counts"]
        # row k of link j's run comes from row k - (its start here) + (its start in self)
        shift = offsets[:-1][rows] - (np.cumsum(counts) - counts)
        return LinkTable(self.paths[np.repeat(shift, counts) + np.arange(counts.sum())], **cols)

    @property
    def height(self) -> np.ndarray:
        """(N,) receiver height."""
        return self.ends[:, 5]

    @property
    def conditions(self) -> np.ndarray:
        """(N, 2) (dist2d, height): the condition a generative model is given per link."""
        return np.stack([self.dist2d, self.height], axis=1)
