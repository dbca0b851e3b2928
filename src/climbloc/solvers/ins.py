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

The IMU steps between two stops of the filter (a fix, a reported epoch)
form a segment, preintegrated in the frame of the attitude r at its start
(Lupton & Sukkarieh 2012, IEEE T-RO 28(1); Forster et al. 2017, IEEE T-RO
33(1)): its attitude, velocity and position increments, error-state
transition Psi and process noise N depend on the IMU samples alone. With
R9 = blockdiag(r, r, r), applying it is P <- R9 (Psi R9^T P R9 Psi^T + N) R9^T,
the per-step P <- phi P phi^T + Q dt (phi = I + F dt) up to rounding, since
each phi is R9 phi_body R9^T and the diagonal Q is rotation invariant.

The state lives in raw arrays: a 3x3 attitude matrix, position and velocity
3-vectors, and the 9x9 covariance. A segment multiplies the attitude by the
product of its Rodrigues rotations, orthonormal to rounding; the attitude
is projected back onto SO(3) (by SVD) only at the resets that fold a fix in
(Sola 2017, arXiv:1711.02508). Orthonormality is checked once per reported
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.types import _ORTHO_TOL, GRAVITY, ImuSample, Rotation, Vec3Enu, nearest_rotation, skew
from ..errors import NumericalFailureError

GRAVITY_ENU = np.array([0.0, 0.0, -GRAVITY])


@dataclass(frozen=True)
class InsState:
    """Nominal INS state: ENU position, ENU velocity, body-to-ENU attitude."""

    position: Vec3Enu
    velocity: tuple[float, float, float]
    attitude: Rotation


def _skews(v: np.ndarray) -> np.ndarray:
    """(n, 3, 3) cross-product matrices of the rows of v."""
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -v[:, 2], v[:, 1], -v[:, 0]
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = v[:, 2], -v[:, 1], v[:, 0]
    return k


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
    k = _skews(v)
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def _default_p0() -> np.ndarray:
    return np.diag([4.0, 4.0, 4.0, 0.25, 0.25, 0.25, 0.01, 0.01, 0.01])


@dataclass
class InsErrorModel:
    """Error-state covariance plus the noise model.

    `q_*` are continuous-time white-noise intensities feeding the position,
    velocity, and attitude error blocks. `gps_sigma` is the 1-sigma ENU
    measurement noise of a position fix at HDOP 1; the measurement
    covariance is scaled by hdop^2.
    """

    P: np.ndarray = field(default_factory=_default_p0)
    q_pos: float = 0.0          # m^2/s^3 equivalent on the dr block
    q_vel: float = 4e-4         # (m/s^2)^2/Hz, accelerometer noise
    q_att: float = 4e-6         # (rad/s)^2/Hz, gyro noise
    gps_sigma: tuple[float, float, float] = (0.8, 0.8, 1.5)

    def __post_init__(self):
        self.P = np.array(self.P, dtype=float)
        if self.P.shape != (9, 9):
            raise ValueError("P must be 9x9")
        if np.max(np.abs(self.P - self.P.T)) > 1e-12:
            raise ValueError("P must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh((self.P + self.P.T) / 2)) < -1e-12:
            raise ValueError("P must be positive semidefinite")


def preintegrate(specific_force, increments, dt, starts, model: InsErrorModel):
    """Preintegrate consecutive IMU intervals split into segments at `starts`.

    Rows as in `GpsInsEkf.propagate_run`; `starts` are the segments' first
    rows, ascending from 0. Yields per segment, in the frame of its start:
    (attitude, velocity and position increments, duration, the factor
    sum_k h_k (h_1 + ... + h_k) that carries gravity into the position,
    Psi, N). Step k sees u_k = dR_k f_k h_k (dR_k: the segment's earlier
    increments) and V_k = u_1 + ... + u_k; N = sum_k h_k Psi_k Q Psi_k^T,
    Psi_k the transition of the steps after k, is summed in closed form by
    K(x) K(y)^T = (x.y) I - y x^T. The loop takes one row of every segment
    per pass, so it makes as many passes as the longest segment has rows.
    """
    h = np.asarray(dt, dtype=float)
    if not np.all(h > 0):
        raise ValueError(f"dt must be > 0, got {h[~(h > 0)][0]}")
    increments = np.asarray(increments, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.diff(starts, append=len(h))
    seg = np.repeat(np.arange(len(starts)), lengths)
    last = starts + lengths - 1

    rotation = increments[starts]  # the product through the rows done so far, per segment
    velocity = np.asarray(specific_force, dtype=float) * h[:, None]  # u on first rows, then V
    elapsed = h.copy()
    mu = np.zeros_like(velocity)  # sum_j h_j V_{j-1}: an error step adds h times the velocity error before it
    for place in range(1, lengths.max(initial=0)):
        g = np.flatnonzero(lengths > place)  # the segments with a row at this place
        i = starts[g] + place
        u = np.einsum("nij,nj->ni", rotation[g], velocity[i])
        rotation[g] = rotation[g] @ increments[i]
        mu[i] = mu[i - 1] + h[i, None] * velocity[i - 1]
        velocity[i] = velocity[i - 1] + u
        elapsed[i] += elapsed[i - 1]
    dv, duration = velocity[last], elapsed[last]

    # Psi_k = [[I, s I, K(m)], [0, I, K(w)], [0, 0, I]]
    s = duration[seg] - elapsed
    w = dv[seg] - velocity
    m = mu[last][seg] - mu - s[:, None] * velocity

    def total(x):
        return np.add.reduceat(h.reshape(-1, *(1,) * (x.ndim - 1)) * x, starts)

    def eye(x):
        return x[:, None, None] * np.eye(3)

    def block(scale, x, y):
        """sum_k h_k (scale_k I + q_att K(x_k) K(y_k)^T), given sum_k h_k scale_k."""
        yx = total(np.einsum("ni,nj->nij", y, x))
        return eye(scale + model.q_att * np.trace(yx, axis1=1, axis2=2)) - model.q_att * yx

    psi, noise = np.tile(np.eye(9), (len(starts), 1, 1)), np.zeros((len(starts), 9, 9))
    psi[:, 0:3, 3:6], psi[:, 0:3, 6:9], psi[:, 3:6, 6:9] = eye(duration), _skews(mu[last]), _skews(dv)
    for (a, b), value in (
        ((0, 0), block(model.q_pos * duration + model.q_vel * total(s * s), m, m)),
        ((0, 1), block(model.q_vel * total(s), m, w)),
        ((1, 1), block(model.q_vel * duration, w, w)),
        ((0, 2), model.q_att * _skews(total(m))),
        ((1, 2), model.q_att * _skews(total(w))),
        ((2, 2), eye(model.q_att * duration)),
    ):
        noise[:, 3 * b : 3 * b + 3, 3 * a : 3 * a + 3] = np.swapaxes(value, 1, 2)
        noise[:, 3 * a : 3 * a + 3, 3 * b : 3 * b + 3] = value
    return zip(rotation, dv, total(velocity), duration, total(elapsed), psi, noise)


class GpsInsEkf:
    """Single-owner GPS/INS filter: propagate through IMU segments, update on fixes.

    Measurements enter as ENU positions (callers convert geodetic fixes with
    the run origin). The last innovation magnitude and HDOP are kept for the
    downstream reliability scoring.
    """

    _I9 = np.eye(9)
    _I9.flags.writeable = False

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
        """Propagate through consecutive IMU intervals as one segment.

        Row i holds the interval's body-frame specific force (n, 3), its
        attitude increment (n, 3, 3) from `rotation_increments`, and its
        length (n,).
        """
        [segment] = preintegrate(specific_force, increments, dt, [0], self.model)
        self.apply(segment)

    def apply(self, segment) -> None:
        """Propagate through one segment from `preintegrate` that starts at the current state."""
        rotation, dv, dp, h, gravity, psi, noise = segment
        r, v = self.attitude, self.velocity
        r9 = np.zeros((9, 9))
        r9[0:3, 0:3] = r9[3:6, 3:6] = r9[6:9, 6:9] = r
        cov = r9 @ (psi @ (r9.T @ self.model.P @ r9) @ psi.T + noise) @ r9.T
        self.model.P = (cov + cov.T) / 2.0
        self.position = self.position + v * h + r @ dp + GRAVITY_ENU * gravity
        self.velocity = v + r @ dv + GRAVITY_ENU * h
        self.attitude = r @ rotation

    def update(self, position: Vec3Enu, hdop: float = 1.0) -> np.ndarray:
        """Apply one ENU position fix; returns the 3-vector innovation.

        estimate = true + error, so the measurement matrix is H = -[I 0 0]:
        H P H^T is P's position block and P H^T is -P[:, :3].
        """
        p = self.model.P
        r = np.square(self.model.gps_sigma) * max(hdop, 1e-6) ** 2  # the diagonal of R
        nu = position.as_array() - self.position
        s = p[:3, :3].copy()
        s.flat[::4] += r
        k = -p[:, :3] @ np.linalg.inv(s)
        delta = k @ nu
        ikh = self._I9.copy()
        ikh[:, :3] += k
        p_new = ikh @ p @ ikh.T + (k * r) @ k.T
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

    def check_attitude(self, t: float) -> None:
        """Fail if the attitude has left SO(3) by more than 1e-9; t names the estimate."""
        r = self.attitude
        if (
            not np.all(np.isfinite(r))
            or np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL
            or abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL
        ):
            raise NumericalFailureError(f"INS attitude is no longer a rotation at t={t}")
