"""Strapdown mechanization and the loosely-coupled GPS/INS error-state EKF.

The nominal state (position, velocity, body-to-ENU attitude) is integrated
from IMU samples with first-order Euler steps at the IMU rate. The filter
estimates the 9-dimensional error state

    x = [dr (3), dv (3), eps (3)]

where `eps` is the small-angle attitude error, with the convention
estimate = true + error (attitude: C_hat = (I - skew(eps)) C_true). The
error dynamics are the local-frame small-area simplification (dr' = dv,
dv' = skew(f_n) eps, eps' = 0, zero earth rates), adequate for trajectories
spanning well under 100 m. Position fixes fold the estimated error back into
the nominal state and reset the error to zero.

The state lives in raw arrays: a 3x3 attitude matrix, position and velocity
3-vectors, and the 9x9 covariance. Each IMU step multiplies the attitude by
the Rodrigues rotation of that step, which is orthonormal to rounding, and
the attitude is projected back onto SO(3) (by SVD) only at the resets that
fold a fix in (Sola 2017, arXiv:1711.02508). Orthonormality is
checked once per reported estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.types import _ORTHO_TOL, GRAVITY, ImuSample, Rotation, Vec3Enu, nearest_rotation, skew
from ..errors import NumericalFailureError
from .types import PoseEstimate

GRAVITY_ENU = np.array([0.0, 0.0, -GRAVITY])


@dataclass(frozen=True)
class InsState:
    """Nominal INS state: ENU position, ENU velocity, body-to-ENU attitude."""

    position: Vec3Enu
    velocity: tuple[float, float, float]
    attitude: Rotation


def rotation_increments(angular_rate: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """(n, 3, 3) Rodrigues rotations exp(skew(angular_rate[i] * dt[i])).

    Uses sin(a)/a and (1 - cos a)/a^2 = 2 sin^2(a/2)/a^2, so angles near zero
    stay accurate; a zero angle gives the identity exactly.
    """
    v = np.asarray(angular_rate, dtype=float) * np.asarray(dt, dtype=float)[:, None]
    angle = np.linalg.norm(v, axis=1)
    small = angle < 1e-12
    safe = np.where(small, 1.0, angle)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    half = np.where(small, 1.0, np.sin(0.5 * safe) / (0.5 * safe))
    b = 0.5 * half * half
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -v[:, 2], v[:, 1], -v[:, 0]
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = v[:, 2], -v[:, 1], v[:, 0]
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _default_p0() -> np.ndarray:
    return np.diag([4.0, 4.0, 4.0, 0.25, 0.25, 0.25, 0.01, 0.01, 0.01])


@dataclass
class InsErrorModel:
    """Error-state covariance plus the noise model.

    `q_*` are continuous-time white-noise intensities feeding the position,
    velocity, and attitude error blocks. `gps_sigma` is the 1-sigma ENU
    measurement noise of a position fix at HDOP 1; the measurement
    covariance is scaled by hdop^2 when `scale_r_by_hdop` is set.
    """

    P: np.ndarray = field(default_factory=_default_p0)
    q_pos: float = 0.0          # m^2/s^3 equivalent on the dr block
    q_vel: float = 4e-4         # (m/s^2)^2/Hz, accelerometer noise
    q_att: float = 4e-6         # (rad/s)^2/Hz, gyro noise
    gps_sigma: tuple[float, float, float] = (0.8, 0.8, 1.5)
    scale_r_by_hdop: bool = True

    def __post_init__(self):
        self.P = np.array(self.P, dtype=float)
        if self.P.shape != (9, 9):
            raise ValueError("P must be 9x9")
        if np.max(np.abs(self.P - self.P.T)) > 1e-12:
            raise ValueError("P must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh((self.P + self.P.T) / 2)) < -1e-12:
            raise ValueError("P must be positive semidefinite")


class GpsInsEkf:
    """Single-owner GPS/INS filter: propagate at the IMU rate, update on fixes.

    Measurements enter as ENU positions (callers convert geodetic fixes with
    the run origin). The last innovation magnitude and HDOP are kept for the
    downstream reliability scoring.
    """

    # estimate = true + error, so the position measurement matrix is -[I 0 0]
    _H = np.hstack([-np.eye(3), np.zeros((3, 6))])

    def __init__(self, state: InsState, model: InsErrorModel | None = None):
        self.position = state.position.as_array()
        self.velocity = np.array(state.velocity, dtype=float)
        self.attitude = np.array(state.attitude.matrix)
        self.model = model if model is not None else InsErrorModel()
        self.last_innovation = 0.0
        self.last_hdop = 1.0

    @property
    def state(self) -> InsState:
        """The nominal state as domain types (validates the attitude)."""
        return InsState(
            Vec3Enu.from_array(self.position), tuple(self.velocity.tolist()), Rotation(self.attitude)
        )

    def propagate(self, imu: ImuSample, dt: float) -> None:
        """Propagate one IMU interval of length dt."""
        dt = np.array([dt], dtype=float)
        self.propagate_run([imu.specific_force], rotation_increments([imu.angular_rate], dt), dt)

    def propagate_run(self, specific_force, increments, dt) -> None:
        """Propagate through consecutive IMU intervals.

        Row i holds the interval's body-frame specific force (n, 3), its
        attitude increment (n, 3, 3) from `rotation_increments`, and its
        length (n,).
        """
        dt = np.asarray(dt, dtype=float)
        if not np.all(dt > 0):
            raise ValueError(f"dt must be > 0, got {dt[~(dt > 0)][0]}")
        q = np.diag(np.repeat([self.model.q_pos, self.model.q_vel, self.model.q_att], 3))
        # phi = I + F dt with F[dr, dv] = I and F[dv, eps] = skew(f_n)
        phi = np.eye(9)
        r, v, p, cov = self.attitude, self.velocity, self.position, self.model.P
        for f_b, d_r, step in zip(np.asarray(specific_force, dtype=float), increments, dt.tolist()):
            f_n = r @ f_b
            r = r @ d_r
            v = v + (f_n + GRAVITY_ENU) * step
            p = p + v * step
            x, y, z = (f_n * step).tolist()
            phi[0, 3] = phi[1, 4] = phi[2, 5] = step
            phi[3, 7], phi[3, 8], phi[4, 6], phi[4, 8], phi[5, 6], phi[5, 7] = -z, y, z, -x, -y, x
            cov = phi @ cov @ phi.T + q * step
            cov = (cov + cov.T) / 2.0
        self.attitude, self.velocity, self.position, self.model.P = r, v, p, cov

    def update(self, position: Vec3Enu, hdop: float = 1.0) -> np.ndarray:
        """Apply one ENU position fix; returns the 3-vector innovation."""
        p = self.model.P
        h = self._H
        r = np.diag(np.asarray(self.model.gps_sigma, dtype=float) ** 2)
        if self.model.scale_r_by_hdop:
            r = r * max(hdop, 1e-6) ** 2
        nu = position.as_array() - self.position
        s = h @ p @ h.T + r
        k = p @ h.T @ np.linalg.inv(s)
        delta = k @ nu
        ikh = np.eye(9) - k @ h
        p_new = ikh @ p @ ikh.T + k @ r @ k.T
        p_new = (p_new + p_new.T) / 2.0
        scale = max(1.0, float(np.trace(p_new)))
        if np.min(np.linalg.eigvalsh(p_new)) < -1e-12 * scale:
            raise NumericalFailureError("GPS/INS covariance lost positive semidefiniteness")
        self.model.P = p_new

        # fold the error estimate back into the nominal state, then reset it
        self.position = self.position - delta[0:3]
        self.velocity = self.velocity - delta[3:6]
        self.attitude = nearest_rotation((np.eye(3) + skew(delta[6:9])) @ self.attitude)
        self.last_innovation = float(np.linalg.norm(nu))
        self.last_hdop = float(hdop)
        return nu

    def estimate(self, t: float) -> PoseEstimate:
        """Position estimate at t; fails if the attitude has left SO(3) by more than 1e-9."""
        r = self.attitude
        if (
            not np.all(np.isfinite(r))
            or np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL
            or abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL
        ):
            raise NumericalFailureError(f"INS attitude is no longer a rotation at t={t}")
        sigma = tuple(float(s) for s in np.sqrt(np.maximum(np.diag(self.model.P)[0:3], 0.0)))
        return PoseEstimate(t=t, position=Vec3Enu.from_array(self.position), sigma=sigma, source="gpsins-ekf")
