"""Domain types for multipath channel parameters and deterministic LOS physics.

A link between a transmitter and a receiver carries up to MAX_PATHS
propagation paths, each described by seven features: pathloss (dB), delay
(s), azimuth/zenith angles of departure and arrival (deg) and arrival phase
(deg).  When the link is line-of-sight, the first-arrival path is fully
determined by the endpoint coordinates and the carrier frequency; those
closed forms live here.  LinkTable evaluates them once per link, next to
the padded path arrays, and the codec and the stats read only that table.

Conventions:
  - azimuths in (-180, 180], zeniths in [0, 180], phases in (-360, 0]
  - zenith 0 points straight up, 90 is the horizon
  - all functions are pure; safe under any concurrency
"""

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter

import numpy as np

from .errors import DataError, GeometryError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
MAX_PATHS = 25
PATH_FIELDS = ("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase")
# the codec's encoded form: a row per path field plus the link-state row, a column per path
MATRIX_SHAPE = (len(PATH_FIELDS) + 1, MAX_PATHS)
_PATH_ROW = attrgetter(*PATH_FIELDS)

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_PATHS",
    "MATRIX_SHAPE",
    "LinkState",
    "PathParams",
    "LinkRecord",
    "LinkTable",
    "PATH_FIELDS",
    "path_rules",
    "link_rules",
    "closed_forms",
    "padded_paths",
    "wrap_azimuth",
    "wrap_phase",
]


class LinkState(Enum):
    """State of the first-arrival path; Outage means no path below 180 dB."""

    LOS = "LOS"
    NLOS = "NLOS"
    OUTAGE = "Outage"


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


@dataclass
class PathParams:
    """One multipath component.

    Fields follow the row order of the 8x25 channel matrix: pathloss (dB),
    delay (s), aod, zod, aoa, zoa, phase (all deg).
    """

    pathloss: float
    delay: float
    aod: float
    zod: float
    aoa: float
    zoa: float
    phase: float

    def __post_init__(self):
        for name in ("pathloss", "delay", "aod", "aoa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.pathloss > 0.0:
            raise ValueError(f"pathloss must be positive, got {self.pathloss}")
        if not self.delay > 0.0:
            raise ValueError(f"delay must be positive, got {self.delay}")
        if not 0.0 <= self.zod <= 180.0:
            raise ValueError(f"zod out of [0, 180]: {self.zod}")
        if not 0.0 <= self.zoa <= 180.0:
            raise ValueError(f"zoa out of [0, 180]: {self.zoa}")
        if not -360.0 < self.phase <= 0.0:
            raise ValueError(f"phase out of (-360, 0]: {self.phase}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.pathloss, self.delay, self.aod, self.zod, self.aoa, self.zoa, self.phase]
        )


@dataclass
class LinkRecord:
    """One tx-rx link: geometry, carrier, link state and delay-sorted paths.

    Zero paths are legal only for Outage links (everything stripped on
    decode); otherwise 1..MAX_PATHS paths sorted ascending by delay.
    """

    tx: tuple
    rx: tuple
    carrier_freq: float
    link_state: LinkState
    paths: list = field(default_factory=list)

    def __post_init__(self):
        self.tx = tuple(float(v) for v in self.tx)
        self.rx = tuple(float(v) for v in self.rx)
        if len(self.tx) != 3 or len(self.rx) != 3:
            raise ValueError("tx and rx must be 3D coordinates")
        if not all(math.isfinite(v) for v in (*self.tx, *self.rx, self.carrier_freq)):
            raise ValueError("coordinates and carrier_freq must be finite")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be positive")
        n = len(self.paths)
        if n == 0 and self.link_state is not LinkState.OUTAGE:
            raise ValueError("only Outage links may have zero paths")
        if n > MAX_PATHS:
            raise ValueError(f"at most {MAX_PATHS} paths per link, got {n}")
        delays = [p.delay for p in self.paths]
        if any(d2 < d1 for d1, d2 in zip(delays, delays[1:])):
            raise ValueError("paths must be sorted ascending by delay")

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def path_rules(rows):
    """[(message, mask)] of the PathParams rules over (P, 7) path rows.

    Each mask is (P,) and True where a row breaks the rule, in the order
    PathParams checks them; a row that breaks none is a valid path.
    """
    finite = np.isfinite(rows[:, [0, 1, 2, 4]]).all(axis=1)  # pathloss, delay, aod, aoa
    return [
        ("pathloss, delay, aod and aoa must be finite", ~finite),
        ("pathloss must be positive", ~(rows[:, 0] > 0.0)),
        ("delay must be positive", ~(rows[:, 1] > 0.0)),
        ("zod out of [0, 180]", ~((rows[:, 3] >= 0.0) & (rows[:, 3] <= 180.0))),
        ("zoa out of [0, 180]", ~((rows[:, 5] >= 0.0) & (rows[:, 5] <= 180.0))),
        ("phase out of (-360, 0]", ~((rows[:, 6] > -360.0) & (rows[:, 6] <= 0.0))),
    ]


def link_rules(paths, counts, state, tx, rx, carrier_freq):
    """[(message, mask)] of the PathParams and LinkRecord rules over link columns.

    The columns are those of LinkTable.from_columns.  Each mask is (N,) and
    True where a link breaks the rule: first a rule of any of its paths
    (path_rules), then the LinkRecord rules in the order it checks them.
    """
    valid = np.arange(paths.shape[1]) < counts[:, None]
    ends = np.column_stack([tx, rx, carrier_freq])
    return [(message, (mask.reshape(valid.shape) & valid).any(axis=1))
            for message, mask in path_rules(paths.reshape(-1, 7))] + [
        ("coordinates and carrier_freq must be finite", ~np.isfinite(ends).all(axis=1)),
        ("carrier_freq must be positive", ~(carrier_freq > 0.0)),
        ("only Outage links may have zero paths", (counts == 0) & (state != LinkState.OUTAGE)),
        (f"at most {MAX_PATHS} paths per link", counts > MAX_PATHS),
        ("paths must be sorted ascending by delay",
         (valid[:, 1:] & (np.diff(paths[..., 1], axis=1) < 0.0)).any(axis=1)),
    ]


def closed_forms(tx, rx, carrier_freq):
    """(dist2d, dist3d, fspl, los) of (N, 3) endpoints and (N,) carriers.

    dist2d may be 0 (a vertical link).  fspl is the free-space pathloss in
    dB, 20 log10(dist3d) + 20 log10(f) - 147.55.  los is the (N, 7)
    line-of-sight path in PathParams field order: pathloss is the
    free-space loss, delay is dist3d/c, the departure azimuth is the
    two-argument arctangent of (y_tx-y_rx, x_tx-x_rx), the arrival azimuth
    its back direction, the zenith of departure is measured from vertical
    at the transmitter (z_rx == z_tx gives the 90 deg horizon) and the
    zenith of arrival mirrors it.  Phase is the carrier rotation left over
    from whole cycles, in (-360, 0].  A row is NaN where the link has no
    such path: a vertical link (no azimuth) or a row PathParams rejects
    (a pathloss that is not positive).

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
        aod = np.degrees(np.arctan2(dy, dx))
        # a half turn staying inside (-180, 180]; exact in float64
        aoa = np.where(aod > 0.0, aod - 180.0, aod + 180.0)
        # atan2(dist2d, z_rx - z_tx) lands in [0, 180] directly, 90 when level
        zod = np.degrees(np.arctan2(dist2d, -dz))
        cycles = freq * delay
        phase = -360.0 * (cycles - np.floor(cycles)) + 0.0  # +0.0 folds -0.0
        los = np.column_stack([fspl, delay, aod, zod, aoa, 180.0 - zod, phase])
    los[(dist2d == 0.0) | np.logical_or.reduce([m for _, m in path_rules(los)])] = np.nan
    return dist2d, dist3d, fspl, los


def padded_paths(cells, counts):
    """(N, W, 7) zero-padded path rows, W >= MAX_PATHS.

    cells holds the (P, 7) path rows of every link in link order, counts
    the (N,) paths per link.  The width is fixed rather than fitted to the
    data, so a link's sums run over the same padded row, and give the same
    bits, in any table.
    """
    width = max(MAX_PATHS, int(counts.max(initial=0)))
    out = np.zeros((len(counts), width, 7))
    out[np.arange(width) < counts[:, None]] = cells
    return out


@dataclass
class LinkTable:
    """Per-link arrays of a link dataset: what encode, decode and eval read.

    paths holds link i's paths in its first counts[i] rows, in PathParams
    field order, zero beyond.  fspl and dist3d give the free-space pathloss
    and delay references; los is the closed-form LOS path in PathParams
    field order, NaN where a link has none (see closed_forms).
    """

    paths: np.ndarray         # (N, W, 7)
    counts: np.ndarray        # (N,)
    state: np.ndarray         # (N,) LinkState objects
    tx: np.ndarray            # (N, 3)
    rx: np.ndarray            # (N, 3)
    carrier_freq: np.ndarray  # (N,)
    dist2d: np.ndarray        # (N,)
    dist3d: np.ndarray        # (N,)
    fspl: np.ndarray          # (N,) dB
    los: np.ndarray           # (N, 7)

    @classmethod
    def from_columns(cls, paths, counts, state, tx, rx, carrier_freq) -> "LinkTable":
        """The table of non-empty link columns, with the closed forms filled in.

        An empty table is a DataError; closed_forms' GeometryError names a
        link whose endpoints coincide.
        """
        if not len(counts):
            raise DataError("empty link dataset")
        return cls(paths, counts, state, tx, rx, carrier_freq,
                   *closed_forms(tx, rx, carrier_freq))

    @classmethod
    def from_links(cls, links) -> "LinkTable":
        """The table of a non-empty link list (see from_columns)."""
        links = list(links)
        counts = np.array([len(lk.paths) for lk in links], dtype=int)
        cells = np.array([_PATH_ROW(p) for lk in links for p in lk.paths],
                         dtype=float).reshape(-1, 7)
        state = np.array([lk.link_state for lk in links], dtype=object)
        return cls.from_columns(
            padded_paths(cells, counts), counts, state,
            np.array([lk.tx for lk in links], dtype=float).reshape(-1, 3),
            np.array([lk.rx for lk in links], dtype=float).reshape(-1, 3),
            np.array([lk.carrier_freq for lk in links], dtype=float))

    def __len__(self) -> int:
        return len(self.counts)

    def take(self, rows) -> "LinkTable":
        return LinkTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    @property
    def height(self) -> np.ndarray:
        """(N,) receiver height."""
        return self.rx[:, 2]

    @property
    def valid(self) -> np.ndarray:
        """(N, W) mask of the real path cells."""
        return np.arange(self.paths.shape[1]) < self.counts[:, None]
