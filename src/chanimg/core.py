"""Domain types for multipath channel parameters and deterministic LOS physics.

A link between a transmitter and a receiver carries up to MAX_PATHS
propagation paths, each described by seven features: pathloss (dB), delay
(s), azimuth/zenith angles of departure and arrival (deg) and arrival phase
(deg).  When the link is line-of-sight, the first-arrival path is fully
determined by the endpoint coordinates and the carrier frequency; those
closed forms live here and are reused by the image codec on decode.

Conventions:
  - azimuths in (-180, 180], zeniths in [0, 180], phases in (-360, 0]
  - zenith 0 points straight up, 90 is the horizon
  - all functions are pure; safe under any concurrency
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GeometryError

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
MAX_PATHS = 25

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_PATHS",
    "LinkState",
    "PathParams",
    "LinkRecord",
    "ConditionVector",
    "geometry",
    "fspl",
    "los_params",
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

    def geometry(self):
        return geometry(self.tx, self.rx)

    def condition(self) -> "ConditionVector":
        dist2d, _ = geometry(self.tx, self.rx)
        return ConditionVector(dist2d=dist2d, height=self.rx[2])


@dataclass(frozen=True)
class ConditionVector:
    """Conditioning variables for the generative model."""

    dist2d: float
    height: float

    def __post_init__(self):
        if self.dist2d <= 0 or self.height <= 0:
            raise ValueError("dist2d and height must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.dist2d, self.height])


def padded_paths(path_lists):
    """(N, W, 7) zero-padded path features and (N,) counts, W >= MAX_PATHS.

    Row j of link i holds its j-th path in PathParams field order.  The
    width is fixed rather than fitted to the data, so a link's sums run
    over the same padded row, and give the same bits, in any table.
    """
    counts = np.array([len(ps) for ps in path_lists], dtype=int)
    width = max(MAX_PATHS, int(counts.max(initial=0)))
    out = np.zeros((len(counts), width, 7))
    for i, ps in enumerate(path_lists):
        if ps:
            out[i, :len(ps)] = [[p.pathloss, p.delay, p.aod, p.zod, p.aoa, p.zoa, p.phase]
                                for p in ps]
    return out, counts


def geometry(tx, rx):
    """2D and 3D distances between endpoints.

    Returns (dist2d, dist3d).  dist2d may be 0 (vertical link); coincident
    endpoints raise GeometryError.
    """
    dx = tx[0] - rx[0]
    dy = tx[1] - rx[1]
    dz = tx[2] - rx[2]
    dist2d = math.hypot(dx, dy)
    dist3d = math.hypot(dist2d, dz)
    if dist3d == 0.0:
        raise GeometryError("tx and rx coincide")
    return dist2d, dist3d


def fspl(dist3d, freq):
    """Free-space pathloss in dB: 20 log10(d3) + 20 log10(f) - 147.55."""
    d = np.asarray(dist3d, dtype=float)
    f = np.asarray(freq, dtype=float)
    if np.any(d <= 0) or np.any(f <= 0):
        raise GeometryError("fspl requires positive distance and frequency")
    out = 20.0 * np.log10(d) + 20.0 * np.log10(f) - 147.55
    return float(out) if out.ndim == 0 else out


def los_params(tx, rx, freq) -> PathParams:
    """Deterministic parameters of the line-of-sight path.

    pathloss is the free-space loss, delay is dist3d/c, departure azimuth is
    the two-argument arctangent of (y_tx-y_rx, x_tx-x_rx), arrival azimuth
    is its back direction, zenith of departure is measured from vertical at
    the transmitter (z_rx == z_tx gives the 90 deg horizon limit) and the
    zenith of arrival mirrors it.  Phase is the carrier rotation left over
    from whole cycles, in (-360, 0].
    """
    dist2d, dist3d = geometry(tx, rx)
    if dist2d == 0.0:
        raise GeometryError("azimuth undefined for a vertical link")

    pathloss = fspl(dist3d, freq)
    delay = dist3d / SPEED_OF_LIGHT

    aod = math.degrees(math.atan2(tx[1] - rx[1], tx[0] - rx[0]))
    # shift by one half turn staying inside (-180, 180]; exact in float64
    aoa = aod - 180.0 if aod > 0.0 else aod + 180.0

    # atan2(dist2d, dz) lands in [0, 180] directly, 90 when dz == 0
    zod = math.degrees(math.atan2(dist2d, rx[2] - tx[2]))
    zoa = 180.0 - zod

    cycles = freq * delay
    phase = -360.0 * (cycles - math.floor(cycles)) + 0.0  # +0.0 folds -0.0

    return PathParams(
        pathloss=pathloss, delay=delay, aod=aod, zod=zod, aoa=aoa, zoa=zoa, phase=phase
    )


def verify_los_first_path(link: LinkRecord, rtol: float = 1e-9) -> bool:
    """True when a LOS link's first path matches the closed-form values."""
    if link.link_state is not LinkState.LOS or not link.paths:
        return False
    expect = los_params(link.tx, link.rx, link.carrier_freq).as_array()
    got = link.paths[0].as_array()
    scale = np.maximum(np.abs(expect), 1e-30)
    return bool(np.all(np.abs(got - expect) <= rtol * scale))
