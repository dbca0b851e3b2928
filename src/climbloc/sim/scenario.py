"""Scenario configuration and the bundled synthetic dataset container.

A scenario is a climbing run on a vertical wall: mostly up-down motion with a
little horizontal sway, optional dwell pauses, one UWB anchor looking at the
wall, a GPS receiver that degrades inside configurable occlusion windows, a
drifting barometer, and a biased/noisy IMU. Everything is driven by a single
integer seed; each sensor draws from its own spawned substream, so changing
one sensor's noise model never disturbs another's samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.geodesy import GeodeticPoint
from ..core.types import (
    AnchorPose,
    BaroStream,
    GpsStream,
    ImuStream,
    Rotation,
    Triple,
    TruthStream,
    UwbStream,
    Vec3Enu,
    _as_triple,
)
from ..errors import ConfigError
from ..solvers.baro import BaroReference

# fixed spawn order of the per-sensor RNG substreams
IMU_STREAM, GPS_STREAM, UWB_STREAM, BARO_STREAM = range(4)


def sensor_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one sensor, stable under other sensors' config."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[stream])


@dataclass(frozen=True)
class PauseSegment:
    """Dwell interval [start, end] with smooth speed ramps of length `ramp` on both sides."""

    start: float
    end: float
    ramp: float = 2.0

    def __post_init__(self):
        if not (self.start < self.end and self.ramp > 0):
            raise ConfigError(f"pause needs start < end and ramp > 0, got {self}")


@dataclass(frozen=True)
class TrajectoryProfile:
    vertical_amplitude: float = 10.0
    vertical_period: float = 120.0
    horizontal_amplitude: float = 0.8
    horizontal_period: float = 20.0
    yaw_amplitude: float = 0.1
    pauses: tuple[PauseSegment, ...] = (PauseSegment(40.0, 50.0), PauseSegment(80.0, 90.0))

    def __post_init__(self):
        if self.vertical_amplitude < 0 or self.horizontal_amplitude < 0:
            raise ConfigError("amplitudes must be >= 0")
        if self.vertical_period <= 0 or self.horizontal_period <= 0:
            raise ConfigError("profile periods must be > 0")
        object.__setattr__(self, "pauses", tuple(self.pauses))
        last_end = float("-inf")
        for p in self.pauses:
            if p.start - p.ramp < last_end:
                raise ConfigError("pause segments (including ramps) must not overlap")
            last_end = p.end + p.ramp


@dataclass(frozen=True)
class ImuNoise:
    accel_sigma: float = 0.02        # m/s^2 white noise, per axis
    gyro_sigma: float = 0.002        # rad/s white noise, per axis
    accel_bias: Triple = (0.05, -0.03, 0.08)
    gyro_bias: Triple = (0.001, -0.0005, 0.0008)

    def __post_init__(self):
        if self.accel_sigma < 0 or self.gyro_sigma < 0:
            raise ConfigError("IMU sigmas must be >= 0")
        object.__setattr__(self, "accel_bias", _as_triple(self.accel_bias))
        object.__setattr__(self, "gyro_bias", _as_triple(self.gyro_bias))


@dataclass(frozen=True)
class OcclusionWindow:
    """GPS degradation interval: additive ENU bias, HDOP inflation, dropout."""

    start: float
    end: float
    bias: Triple = (0.0, 0.0, 0.0)
    hdop_inflation: float = 1.0
    dropout: float = 0.0

    def __post_init__(self):
        if not self.start < self.end:
            raise ConfigError("occlusion window needs start < end")
        if self.hdop_inflation < 1.0:
            raise ConfigError("hdop_inflation must be >= 1")
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigError("dropout must be a probability")
        object.__setattr__(self, "bias", _as_triple(self.bias))

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


@dataclass(frozen=True)
class GpsNoise:
    sigma_xy: float = 0.8
    sigma_z: float = 1.5
    rate_hz: float = 10.0
    base_hdop: float = 1.0
    occlusions: tuple[OcclusionWindow, ...] = (
        OcclusionWindow(50.0, 95.0, bias=(2.5, -1.5, 2.0), hdop_inflation=4.0, dropout=0.35),
    )

    def __post_init__(self):
        if self.sigma_xy < 0 or self.sigma_z < 0:
            raise ConfigError("GPS sigmas must be >= 0")
        if self.rate_hz <= 0 or self.base_hdop <= 0:
            raise ConfigError("GPS rate and base hdop must be > 0")
        object.__setattr__(self, "occlusions", tuple(self.occlusions))


@dataclass(frozen=True)
class NlosWindow:
    start: float
    end: float
    range_bias: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ConfigError("NLOS window needs start < end")
        if self.range_bias < 0:
            raise ConfigError("NLOS range bias must be >= 0")

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


@dataclass(frozen=True)
class UwbNoise:
    range_sigma: float = 0.1         # m
    angle_sigma: float = 0.01        # rad
    rate_hz: float = 10.0
    nlos_windows: tuple[NlosWindow, ...] = (
        NlosWindow(30.0, 45.0, 1.5),
        NlosWindow(100.0, 110.0, 2.0),
    )
    nlos_confidence: float = 0.9     # reported inside NLOS windows
    los_confidence: float = 0.05     # reported elsewhere
    confidence_sigma: float = 0.0    # optional jitter on the reported confidence

    def __post_init__(self):
        if min(self.range_sigma, self.angle_sigma, self.confidence_sigma) < 0:
            raise ConfigError("UWB sigmas must be >= 0")
        if self.rate_hz <= 0:
            raise ConfigError("UWB rate must be > 0")
        for c in (self.nlos_confidence, self.los_confidence):
            if not 0.0 <= c <= 1.0:
                raise ConfigError("confidence levels must be in [0, 1]")
        object.__setattr__(self, "nlos_windows", tuple(self.nlos_windows))


@dataclass(frozen=True)
class BaroNoise:
    pressure_sigma: float = 5.0      # Pa
    drift_rate: float = 0.05         # Pa/s, linear sensor drift
    rate_hz: float = 10.0
    reference: BaroReference = BaroReference()

    def __post_init__(self):
        if self.pressure_sigma < 0:
            raise ConfigError("pressure sigma must be >= 0")
        if self.rate_hz <= 0:
            raise ConfigError("baro rate must be > 0")


# anchor north of the wall at half height, boresight pointing south at it
DEFAULT_ANCHOR_POSITION = Vec3Enu(0.0, 15.0, 5.0)


def _default_anchor() -> AnchorPose:
    boresight_south = Rotation.orthonormalized(
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    )
    return AnchorPose(position=DEFAULT_ANCHOR_POSITION, orientation=boresight_south)


@dataclass(frozen=True)
class ScenarioConfig:
    duration: float = 120.0
    dt: float = 0.01
    profile: TrajectoryProfile = TrajectoryProfile()
    imu: ImuNoise = ImuNoise()
    gps: GpsNoise = GpsNoise()
    uwb: UwbNoise = UwbNoise()
    baro: BaroNoise = BaroNoise()
    anchor: AnchorPose = field(default_factory=_default_anchor)
    # default origin keeps |lat|, |lon| < 0.5 rad so their float64 ulp stays
    # fine enough for sub-nanometer ENU round trips
    origin: GeodeticPoint = GeodeticPoint(lat=0.48, lon=0.3, height=50.0)
    seed: int = 7

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not self.duration > 0:
            raise ConfigError(f"duration must be > 0, got {self.duration}")
        if self.dt >= self.duration:
            raise ConfigError("dt must be smaller than duration")
        for p in self.profile.pauses:
            if p.end + p.ramp > self.duration:
                raise ConfigError("pause (with ramp) extends past the scenario duration")

    @property
    def n_steps(self) -> int:
        # tolerate float division landing just below an integer boundary
        return int(self.duration / self.dt + 1e-9)


@dataclass(frozen=True)
class ScenarioData:
    """One generated scenario: ground truth plus all four raw sensor streams."""

    truth: TruthStream
    imu: ImuStream
    gps: GpsStream
    uwb: UwbStream
    baro: BaroStream
    anchor: AnchorPose
    baro_reference: BaroReference
    origin: GeodeticPoint


def sensor_times(duration: float, rate_hz: float) -> list[float]:
    """Sampling instants k/rate for k = 1..floor(duration*rate)."""
    n = int(duration * rate_hz + 1e-9)
    return [k / rate_hz for k in range(1, n + 1)]
