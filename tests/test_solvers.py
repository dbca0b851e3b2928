"""Tests for the classical sensor solvers and the GPS/INS error-state filter."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from climbloc.core import (
    AnchorPose,
    GeodeticPoint,
    GpsStream,
    ImuSample,
    ImuStream,
    Rotation,
    UwbMeasurement,
    UwbStream,
    Vec3Enu,
    geodetic_to_enu,
    skew,
)
from climbloc.errors import MissingInputError
from climbloc.fusion import ekf_pass, epoch_times
from climbloc.fusion.pipeline import _stop_schedule
from climbloc.sim import (
    GpsNoise,
    OcclusionWindow,
    PauseSegment,
    ScenarioConfig,
    TrajectoryProfile,
    simulate_scenario,
)
from climbloc.solvers import (
    GRAVITY_ENU,
    BaroReference,
    GpsInsEkf,
    InsErrorModel,
    InsState,
    UwbSigmaModel,
    baro_altitude,
    baro_inverse,
    uwb_geometric_fixes,
    uwb_geometric_solve,
    uwb_inverse,
    uwb_local_direction,
)
from climbloc.solvers.ins import preintegrate, rotation_increments

IDENTITY_ANCHOR = AnchorPose(position=Vec3Enu(0.0, 0.0, 0.0), orientation=Rotation.identity())


class TestUwbGeometry:
    def test_exact_when_beta_zero(self):
        u = uwb_local_direction(5.0, math.pi / 6, 0.0)
        np.testing.assert_allclose(u, [2.5, 0.0, 5.0 * math.sqrt(3.0) / 2.0], atol=1e-12)
        assert np.linalg.norm(u) == pytest.approx(5.0, abs=1e-12)

    def test_exact_when_alpha_zero(self):
        u = uwb_local_direction(4.0, 0.0, -math.pi / 4)
        np.testing.assert_allclose(u, [0.0, -2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0)], atol=1e-12)

    def test_boresight(self):
        np.testing.assert_allclose(uwb_local_direction(7.0, 0.0, 0.0), [0.0, 0.0, 7.0], atol=0)

    def test_norm_overshoot_factor(self):
        # |u| = d * sqrt(1 + sin^2(a) sin^2(b))
        d, a, b = 3.0, 0.4, -0.7
        u = uwb_local_direction(d, a, b)
        expected = d * math.sqrt(1.0 + math.sin(a) ** 2 * math.sin(b) ** 2)
        assert np.linalg.norm(u) == pytest.approx(expected, rel=1e-12)

    def test_solve_applies_anchor_pose(self):
        # anchor boresight along +north: local z maps to north
        orient = Rotation.orthonormalized(np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]]))
        anchor = AnchorPose(position=Vec3Enu(1.0, 2.0, 3.0), orientation=orient)
        m = UwbMeasurement(t=0.0, range=6.0, alpha=0.0, beta=0.0)
        est = uwb_geometric_solve(m, anchor, UwbSigmaModel())
        np.testing.assert_allclose(est.position.as_array(), [1.0, 8.0, 3.0], atol=1e-12)
        assert est.source == "uwb-geo"

    def test_inverse_recovers_exact_axis_cases(self):
        target = Vec3Enu(2.5, 0.0, 5.0 * math.sqrt(3.0) / 2.0)
        d, a, b = uwb_inverse(target, IDENTITY_ANCHOR)
        assert d == pytest.approx(5.0, abs=1e-12)
        assert a == pytest.approx(math.pi / 6, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_inverse_rejects_rear_hemisphere(self):
        with pytest.raises(ValueError):
            uwb_inverse(Vec3Enu(0.0, 0.0, -1.0), IDENTITY_ANCHOR)

    def test_round_trip_error_bound_on_grid(self):
        # relative position error of solve(inverse(p)) is bounded by
        # sin|alpha| * sin|beta| across the front hemisphere
        angles = np.linspace(-1.2, 1.2, 50)
        d = 8.0
        for a_true in angles:
            for b_true in angles:
                # build a target from spherical-style angles, then round trip
                x = d * math.sin(a_true)
                y = d * math.sin(b_true)
                rest = d * d - x * x - y * y
                if rest <= 1e-9:
                    continue
                target = Vec3Enu(x, y, math.sqrt(rest))
                dist = float(np.linalg.norm(target.as_array()))
                meas_d, alpha, beta = uwb_inverse(target, IDENTITY_ANCHOR)
                m = UwbMeasurement(t=0.0, range=meas_d, alpha=alpha, beta=beta)
                est = uwb_geometric_solve(m, IDENTITY_ANCHOR, UwbSigmaModel())
                err = float(np.linalg.norm(est.position.as_array() - target.as_array()))
                bound = math.sin(abs(alpha)) * math.sin(abs(beta)) * dist
                assert err <= bound + 1e-9

    def test_sigma_grows_with_range(self):
        model = UwbSigmaModel(range_sigma=0.1, angle_sigma=0.01)
        near = uwb_geometric_solve(UwbMeasurement(0.0, 2.0, 0.3, 0.2), IDENTITY_ANCHOR, model)
        far = uwb_geometric_solve(UwbMeasurement(0.0, 20.0, 0.3, 0.2), IDENTITY_ANCHOR, model)
        assert sum(far.sigma) > sum(near.sigma)

    @given(
        x=st.floats(-20.0, 20.0),
        y=st.floats(-20.0, 20.0),
        z=st.floats(0.5, 30.0),
    )
    @settings(max_examples=200)
    def test_round_trip_preserves_transverse_components(self, x, y, z):
        # solve(inverse(p)) keeps local x and y exactly; the whole error sits
        # on the boresight axis and respects the sin|a| sin|b| bound
        target = Vec3Enu(x, y, z)
        d, alpha, beta = uwb_inverse(target, IDENTITY_ANCHOR)
        m = UwbMeasurement(t=0.0, range=d, alpha=alpha, beta=beta)
        est = uwb_geometric_solve(m, IDENTITY_ANCHOR, UwbSigmaModel())
        got = est.position.as_array()
        assert got[0] == pytest.approx(x, abs=1e-9 * max(1.0, d))
        assert got[1] == pytest.approx(y, abs=1e-9 * max(1.0, d))
        err = float(np.linalg.norm(got - target.as_array()))
        bound = math.sin(abs(alpha)) * math.sin(abs(beta)) * d
        assert err <= bound + 1e-9 * max(1.0, d)


def _reference_fix(d: float, alpha: float, beta: float, anchor: AnchorPose, sigma_model: UwbSigmaModel):
    """(ENU position, per-axis sigma) of one (d, alpha, beta) measurement, one row at a time.

    The scalar closed form the array kernel replaced; the kernel must give
    its bits on every row.
    """
    local = np.array([d * math.sin(alpha), d * math.sin(beta), d * math.cos(alpha) * math.cos(beta)])
    position = anchor.position.as_array() + anchor.orientation.apply(local)

    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    jac = np.array(
        [
            [sa, d * ca, 0.0],
            [sb, 0.0, d * cb],
            [ca * cb, -d * sa * cb, -d * ca * sb],
        ]
    )
    meas_cov = np.diag(
        [sigma_model.range_sigma**2, sigma_model.angle_sigma**2, sigma_model.angle_sigma**2]
    )
    rot = anchor.orientation.matrix
    nav_cov = rot @ jac @ meas_cov @ jac.T @ rot.T
    return position, np.sqrt(np.maximum(np.diag(nav_cov), 0.0))


@st.composite
def uwb_fix_cases(draw):
    """(UWB stream of 0-60 rows, anchor with a random proper rotation, sigma model)."""
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    position = draw(arrays(float, 3, elements=st.floats(-50.0, 50.0)))
    anchor = AnchorPose(position=Vec3Enu.from_array(position), orientation=Rotation(q))
    sigma_model = UwbSigmaModel(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 0.5)))
    n = draw(st.integers(0, 60))
    angle = st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True)
    stream = UwbStream(
        t=np.arange(n, dtype=float),
        range=draw(arrays(float, n, elements=st.floats(0.0, 40.0))),
        alpha=draw(arrays(float, n, elements=angle)),
        beta=draw(arrays(float, n, elements=angle)),
        nlos=np.zeros(n),
    )
    return stream, anchor, sigma_model


class TestUwbArrayKernel:
    @given(case=uwb_fix_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_row_has_the_bits_of_the_per_row_reference(self, case):
        stream, anchor, sigma_model = case
        positions, sigmas = uwb_geometric_fixes(stream, anchor, sigma_model)
        assert positions.shape == sigmas.shape == (len(stream), 3)
        rows = zip(stream.range.tolist(), stream.alpha.tolist(), stream.beta.tolist())
        for i, (d, alpha, beta) in enumerate(rows):
            position, sigma = _reference_fix(d, alpha, beta, anchor, sigma_model)
            np.testing.assert_array_equal(positions[i], position)
            np.testing.assert_array_equal(sigmas[i], sigma)

    @given(case=uwb_fix_cases())
    @settings(max_examples=50, deadline=None)
    def test_one_row_call_equals_its_row_of_the_n_row_call(self, case):
        stream, anchor, sigma_model = case
        positions, sigmas = uwb_geometric_fixes(stream, anchor, sigma_model)
        for i in range(len(stream)):
            one = uwb_geometric_fixes(stream[i : i + 1], anchor, sigma_model)
            np.testing.assert_array_equal(one[0], positions[i : i + 1])
            np.testing.assert_array_equal(one[1], sigmas[i : i + 1])
            m = UwbMeasurement(stream.t[i], stream.range[i], stream.alpha[i], stream.beta[i])
            est = uwb_geometric_solve(m, anchor, sigma_model)
            np.testing.assert_array_equal(est.position.as_array(), positions[i])
            np.testing.assert_array_equal(est.sigma, sigmas[i])
            local = uwb_local_direction(stream.range[i], stream.alpha[i], stream.beta[i])
            np.testing.assert_array_equal(
                local, uwb_local_direction(stream.range, stream.alpha, stream.beta)[i]
            )

    def test_empty_stream_gives_0_by_3_arrays(self):
        empty = UwbStream(t=[], range=[], alpha=[], beta=[], nlos=[])
        positions, sigmas = uwb_geometric_fixes(empty, IDENTITY_ANCHOR)
        assert positions.shape == sigmas.shape == (0, 3)
        assert uwb_local_direction(empty.range, empty.alpha, empty.beta).shape == (0, 3)

    def test_local_direction_shape_follows_its_arguments(self):
        assert uwb_local_direction(5.0, 0.3, -0.2).shape == (3,)
        assert uwb_local_direction(np.full(4, 5.0), np.zeros(4), np.zeros(4)).shape == (4, 3)


class TestBarometricAltitude:
    def test_reference_pressure_gives_zero(self):
        ref = BaroReference()
        assert baro_altitude(ref.p0, ref) == pytest.approx(0.0, abs=1e-12)

    def test_half_pressure_standard_atmosphere(self):
        # independently computed with 50-digit arithmetic:
        # h(P0/2) = (t0/V) * (1 - 0.5^(R V / (g M)))
        ref = BaroReference()
        assert baro_altitude(ref.p0 / 2.0, ref) == pytest.approx(5477.339496198517, abs=1e-6)

    def test_monotone_decreasing_in_pressure(self):
        ref = BaroReference()
        pressures = np.linspace(30000.0, 110000.0, 200)
        alts = [baro_altitude(float(p), ref) for p in pressures]
        assert all(a > b for a, b in zip(alts, alts[1:]))

    def test_rejects_nonpositive_pressure(self):
        with pytest.raises(ValueError):
            baro_altitude(0.0, BaroReference())
        with pytest.raises(ValueError):
            baro_altitude(-5.0, BaroReference())

    def test_inverse_rejects_altitude_at_ceiling(self):
        ref = BaroReference()
        with pytest.raises(ValueError):
            baro_inverse(ref.ceiling, ref)

    @given(h=st.floats(-1000.0, 10000.0))
    @settings(max_examples=200)
    def test_round_trip_altitude(self, h):
        ref = BaroReference()
        assert baro_altitude(baro_inverse(h, ref), ref) == pytest.approx(h, abs=1e-9)

    def test_exponent_value(self):
        # R * V / (g * M) for the standard constants
        assert BaroReference().exponent == pytest.approx(0.1902664, abs=1e-6)


def _static_imu(attitude: Rotation) -> ImuSample:
    """Specific force that exactly cancels gravity for the given attitude."""
    f_b = attitude.matrix.T @ np.array([0.0, 0.0, 9.80665])
    return ImuSample(t=0.0, specific_force=tuple(f_b), angular_rate=(0.0, 0.0, 0.0))


def _mechanize(state: InsState, imu: ImuSample, dt: float, n: int) -> InsState:
    """n strapdown steps of the filter's propagation, from `state`."""
    ekf = GpsInsEkf(state)
    for _ in range(n):
        ekf.propagate(imu, dt)
    return ekf.state


class TestMechanization:
    def test_static_equilibrium(self):
        state = InsState(Vec3Enu(1.0, 2.0, 3.0), (0.0, 0.0, 0.0), Rotation.identity())
        state = _mechanize(state, _static_imu(state.attitude), 0.01, 100)
        np.testing.assert_allclose(state.position.as_array(), [1.0, 2.0, 3.0], atol=1e-9)
        np.testing.assert_allclose(state.velocity, [0.0, 0.0, 0.0], atol=1e-9)

    def test_static_equilibrium_tilted(self):
        att = Rotation(_rotvec_matrix(np.array([0.3, -0.2, 0.5])))
        state = InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), att)
        state = _mechanize(state, _static_imu(att), 0.02, 50)
        np.testing.assert_allclose(state.velocity, [0.0, 0.0, 0.0], atol=1e-9)

    def test_constant_yaw_rate(self):
        state = InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Rotation.identity())
        imu = ImuSample(t=0.0, specific_force=(0.0, 0.0, 9.80665), angular_rate=(0.0, 0.0, 0.1))
        # gravity cancellation only holds while body z stays up, which a pure
        # yaw preserves, so the state stays static while heading advances
        state = _mechanize(state, imu, 0.01, 100)
        expected = Rotation(_rotvec_matrix(np.array([0.0, 0.0, 0.1])))
        np.testing.assert_allclose(state.attitude.matrix, expected.matrix, atol=1e-9)
        np.testing.assert_allclose(state.velocity, [0.0, 0.0, 0.0], atol=1e-8)

    def test_constant_acceleration_discrete_sum(self):
        # semi-implicit Euler: p_N = a dt^2 N(N+1)/2 exactly
        state = InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Rotation.identity())
        imu = ImuSample(t=0.0, specific_force=(1.0, 0.0, 9.80665), angular_rate=(0.0, 0.0, 0.0))
        dt, n = 0.01, 200
        state = _mechanize(state, imu, dt, n)
        exact = 1.0 * dt * dt * n * (n + 1) / 2.0
        assert state.position.east == pytest.approx(exact, rel=1e-12)
        assert state.velocity[0] == pytest.approx(1.0 * dt * n, rel=1e-12)
        # and the discrete sum tracks the continuous t^2/2 within one step
        assert state.position.east == pytest.approx(0.5 * 1.0 * (dt * n) ** 2, rel=2.0 / n)

    def test_free_fall(self):
        state = InsState(Vec3Enu(0.0, 0.0, 100.0), (0.0, 0.0, 0.0), Rotation.identity())
        imu = ImuSample(t=0.0, specific_force=(0.0, 0.0, 0.0), angular_rate=(0.0, 0.0, 0.0))
        state = _mechanize(state, imu, 0.01, 100)
        assert state.velocity[2] == pytest.approx(-9.80665, rel=1e-12)

    def test_rejects_nonpositive_dt(self):
        state = InsState(Vec3Enu(0, 0, 0), (0, 0, 0), Rotation.identity())
        with pytest.raises(ValueError):
            _mechanize(state, _static_imu(state.attitude), 0.0, 1)


class TestGpsInsEkf:
    @staticmethod
    def _static_filter(**model_kwargs) -> GpsInsEkf:
        state = InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Rotation.identity())
        return GpsInsEkf(state, InsErrorModel(**model_kwargs))

    @staticmethod
    def _step(ekf: GpsInsEkf, imu: ImuSample, dt: float, fix: Vec3Enu | None = None, hdop: float = 1.0):
        ekf.propagate(imu, dt)
        if fix is not None:
            ekf.update(fix, hdop)

    def test_zero_innovation_leaves_state_fixed(self):
        ekf = self._static_filter()
        imu = _static_imu(ekf.state.attitude)
        ekf.propagate(imu, 0.01)
        nu = ekf.update(Vec3Enu(0.0, 0.0, 0.0), hdop=1.0)
        np.testing.assert_allclose(nu, [0.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(ekf.state.position.as_array(), [0.0, 0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(ekf.state.velocity, [0.0, 0.0, 0.0], atol=1e-9)

    def test_updates_converge_to_fix_position(self):
        ekf = self._static_filter()
        imu = _static_imu(ekf.state.attitude)
        fix = Vec3Enu(1.0, -2.0, 0.5)
        for _ in range(200):
            self._step(ekf, imu, 0.1, fix)
        np.testing.assert_allclose(ekf.state.position.as_array(), fix.as_array(), atol=0.01)

    def test_covariance_contracts_with_updates(self):
        ekf = self._static_filter()
        imu = _static_imu(ekf.state.attitude)
        p_before = float(np.trace(ekf.model.P[0:3, 0:3]))
        for _ in range(20):
            self._step(ekf, imu, 0.1, Vec3Enu(0.0, 0.0, 0.0))
        p_after = float(np.trace(ekf.model.P[0:3, 0:3]))
        assert p_after < p_before / 5.0

    def test_covariance_stays_psd_through_many_cycles(self):
        ekf = self._static_filter()
        rng = np.random.default_rng(7)
        imu = _static_imu(ekf.state.attitude)
        for i in range(300):
            fix = Vec3Enu(*rng.normal(0.0, 1.0, 3)) if i % 10 == 0 else None
            self._step(ekf, imu, 0.01, fix)
        assert np.min(np.linalg.eigvalsh(ekf.model.P)) >= -1e-10

    def test_high_hdop_downweights_fix(self):
        far = Vec3Enu(5.0, 0.0, 0.0)
        tight = self._static_filter()
        tight.propagate(_static_imu(tight.state.attitude), 0.01)
        tight.update(far, hdop=1.0)
        loose = self._static_filter()
        loose.propagate(_static_imu(loose.state.attitude), 0.01)
        loose.update(far, hdop=8.0)
        assert abs(loose.state.position.east) < abs(tight.state.position.east)
        assert loose.last_hdop == 8.0

    def test_tilt_drift_grows_superlinearly(self):
        # a small roll error misprojects gravity, so unaided position error
        # accumulates roughly as t^2
        def drift_after(n_steps):
            att = Rotation(_rotvec_matrix(np.array([0.002, 0.0, 0.0])))
            state = InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), att)
            imu = ImuSample(0.0, (0.0, 0.0, 9.80665), (0.0, 0.0, 0.0))
            state = _mechanize(state, imu, 0.01, n_steps)
            return float(np.linalg.norm(state.position.as_array()))

        d1, d2 = drift_after(500), drift_after(1000)
        assert d2 > 3.0 * d1
        assert d2 == pytest.approx(4.0 * d1, rel=0.05)

    def test_position_variance_matches_scalar_filter(self):
        # with no velocity or attitude uncertainty and no noise feeding them,
        # the east position error decouples; its variance must follow the
        # scalar Kalman recursion exactly
        q, r_sig, dt = 0.05, 1.25, 0.1
        ekf = self._static_filter(
            P=np.diag([4.0, 4.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            q_pos=q,
            q_vel=0.0,
            q_att=0.0,
            gps_sigma=(r_sig, r_sig, r_sig),
        )
        imu = _static_imu(ekf.state.attitude)
        p_scalar = float(ekf.model.P[0, 0])
        r = r_sig**2
        for _ in range(25):
            self._step(ekf, imu, dt, Vec3Enu(0.0, 0.0, 0.0))
            p_scalar = p_scalar + q * dt
            k = p_scalar / (p_scalar + r)
            p_scalar = (1.0 - k) * p_scalar
            assert ekf.model.P[0, 0] == pytest.approx(p_scalar, rel=1e-9)

    def test_model_rejects_bad_covariance(self):
        with pytest.raises(ValueError):
            InsErrorModel(P=np.eye(8))
        bad = np.eye(9)
        bad[0, 1] = 0.5  # asymmetric
        with pytest.raises(ValueError):
            InsErrorModel(P=bad)


def _svd_rotation(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def _rotvec_matrix(v: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(v))
    if angle < 1e-12:
        return _svd_rotation(np.eye(3) + skew(v))
    k = skew(v / angle)
    return _svd_rotation(np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k))


def _reference_ekf_pass(scenario, epochs):
    """(positions, sigmas) per epoch from a per-sample filter that projects the
    attitude back onto SO(3) by SVD after every IMU step; it skips invalid fixes."""
    model = InsErrorModel()
    p, v, r, cov = np.zeros(3), np.zeros(3), np.eye(3), model.P.copy()
    q = np.diag([model.q_pos] * 3 + [model.q_vel] * 3 + [model.q_att] * 3)
    h = np.hstack([-np.eye(3), np.zeros((3, 6))])
    imu, gps = scenario.imu, scenario.gps
    gaps = np.append(np.diff(imu.t), imu.t[-1] - imu.t[-2])
    i_imu = i_gps = 0

    def advance(until):
        nonlocal p, v, r, cov, i_imu
        while i_imu < len(imu) and imu.t[i_imu] + gaps[i_imu] <= until + 1e-9:
            dt = gaps[i_imu]
            f_n = r @ imu.specific_force[i_imu]
            r = _svd_rotation(r @ _rotvec_matrix(imu.angular_rate[i_imu] * dt))
            v = v + (f_n + np.array([0.0, 0.0, -9.80665])) * dt
            p = p + v * dt
            phi = np.eye(9)
            phi[0:3, 3:6] = np.eye(3) * dt
            phi[3:6, 6:9] = skew(f_n) * dt
            cov = phi @ cov @ phi.T + q * dt
            cov = (cov + cov.T) / 2.0
            i_imu += 1

    positions, sigmas = [], []
    for t_k in epochs:
        while i_gps < len(gps) and gps.t[i_gps] <= t_k + 1e-9:
            if not gps.valid[i_gps]:
                i_gps += 1
                continue
            advance(gps.t[i_gps])
            z = geodetic_to_enu(
                GeodeticPoint(gps.lat[i_gps], gps.lon[i_gps], gps.height[i_gps]), scenario.origin
            ).as_array()
            rm = np.diag(np.asarray(model.gps_sigma) ** 2) * max(gps.hdop[i_gps], 1e-6) ** 2
            i_gps += 1
            k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + rm)
            delta = k @ (z - p)
            ikh = np.eye(9) - k @ h
            cov = ikh @ cov @ ikh.T + k @ rm @ k.T
            cov = (cov + cov.T) / 2.0
            p, v = p - delta[0:3], v - delta[3:6]
            r = _svd_rotation((np.eye(3) + skew(delta[6:9])) @ r)
        advance(t_k)
        positions.append(p)
        sigmas.append(np.sqrt(np.diag(cov)[0:3]))
    return np.array(positions), np.array(sigmas)


class TestEkfPass:
    SCENARIO = ScenarioConfig(
        duration=20.0,
        profile=TrajectoryProfile(vertical_period=20.0, pauses=(PauseSegment(6.0, 8.0, ramp=0.5),)),
        gps=GpsNoise(occlusions=(OcclusionWindow(8.0, 15.0, bias=(2.5, -1.5, 2.0), hdop_inflation=4.0,
                                                 dropout=0.35),)),
    )

    def test_matches_per_step_svd_reference(self):
        scenario = simulate_scenario(self.SCENARIO)
        epochs = epoch_times(scenario)
        positions, sigmas, _, _ = ekf_pass(scenario, epochs)
        ref_positions, ref_sigmas = _reference_ekf_pass(scenario, epochs)
        assert np.max(np.abs(positions - ref_positions)) <= 1e-9
        assert np.max(np.abs(sigmas - ref_sigmas)) <= 1e-12

    def test_invalid_fixes_are_skipped_as_in_the_reference(self):
        scenario = simulate_scenario(self.SCENARIO)
        valid = np.random.default_rng(11).random(len(scenario.gps)) < 0.6
        scenario = dataclasses.replace(scenario, gps=dataclasses.replace(scenario.gps, valid=valid))
        epochs = epoch_times(scenario)
        positions, sigmas, _, _ = ekf_pass(scenario, epochs)
        ref_positions, ref_sigmas = _reference_ekf_pass(scenario, epochs)
        assert np.max(np.abs(positions - ref_positions)) <= 1e-9
        assert np.max(np.abs(sigmas - ref_sigmas)) <= 1e-12

    def test_dead_reckoning_keeps_the_attitude_orthonormal(self):
        # no GPS fix, so no reset ever re-orthonormalizes: 60 s of Rodrigues steps
        imu = simulate_scenario(dataclasses.replace(self.SCENARIO, duration=60.0)).imu
        ekf = GpsInsEkf(InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Rotation.identity()))
        gaps = np.append(np.diff(imu.t), imu.t[-1] - imu.t[-2])
        ekf.propagate_run(imu.specific_force, rotation_increments(imu.angular_rate, gaps), gaps)
        r = ekf.state.attitude.matrix
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def _per_step_propagation(ekf: GpsInsEkf, specific_force, increments, dt):
    """(attitude, velocity, position, P) after the per-IMU-step recurrence:
    an Euler step of the nominal state and P <- phi P phi^T + Q dt with
    phi = I + F dt, one step at a time."""
    model = ekf.model
    q = np.diag(np.repeat([model.q_pos, model.q_vel, model.q_att], 3))
    r, v, p, cov = ekf.attitude, ekf.velocity, ekf.position, model.P
    for f_b, d_r, step in zip(specific_force, increments, dt):
        f_n = r @ f_b
        r = r @ d_r
        v = v + (f_n + GRAVITY_ENU) * step
        p = p + v * step
        phi = np.eye(9)
        phi[0:3, 3:6] = np.eye(3) * step
        phi[3:6, 6:9] = skew(f_n * step)
        cov = phi @ cov @ phi.T + q * step
        cov = (cov + cov.T) / 2.0
    return r, v, p, cov


def _random_filter(rng) -> GpsInsEkf:
    """A filter in a random state, with a random full covariance and position process noise."""
    attitude = Rotation(_rotvec_matrix(rng.normal(0.0, 1.0, 3)))
    state = InsState(Vec3Enu(*rng.normal(0.0, 5.0, 3)), tuple(rng.normal(0.0, 1.0, 3)), attitude)
    a = rng.normal(0.0, 1.0, (9, 9))
    return GpsInsEkf(state, InsErrorModel(P=(a @ a.T + (a @ a.T).T) / 18.0, q_pos=1e-3))


def _random_imu(rng, n):
    """n intervals: specific force near 1 g, angular rates up to 2 rad/s, non-uniform dt."""
    direction = rng.normal(0.0, 1.0, (n, 3))
    rates = direction / np.linalg.norm(direction, axis=1, keepdims=True) * rng.uniform(0.0, 2.0, (n, 1))
    dt = rng.uniform(0.001, 0.05, n)
    return rng.normal(0.0, 3.0, (n, 3)) + [0.0, 0.0, 9.8], rotation_increments(rates, dt), dt


class TestPreintegration:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_step_recurrence(self, n, seed):
        rng = np.random.default_rng(seed)
        force, increments, dt = _random_imu(rng, n)
        one, split = _random_filter(np.random.default_rng(seed)), _random_filter(np.random.default_rng(seed))
        r, v, p, cov = _per_step_propagation(one, force, increments, dt)
        one.propagate_run(force, increments, dt)
        starts = np.flatnonzero(np.append(True, rng.uniform(size=n - 1) < 0.3))
        for segment in preintegrate(force, increments, dt, starts, split.model):
            split.apply(segment)
        for ekf in (one, split):
            assert np.max(np.abs(ekf.model.P - cov)) <= 1e-12 * np.max(np.abs(cov))
            assert np.max(np.abs(ekf.position - p)) <= 1e-9
            assert np.max(np.abs(ekf.velocity - v)) <= 1e-9
            assert np.max(np.abs(ekf.attitude - r)) <= 1e-12
            assert np.max(np.abs(ekf.attitude.T @ ekf.attitude - np.eye(3))) <= 1e-12

    def test_one_step_segment_is_one_euler_step(self):
        rng = np.random.default_rng(11)
        ekf = _random_filter(rng)
        force, increments, dt = _random_imu(rng, 1)
        r, v, p, cov, h = ekf.attitude, ekf.velocity, ekf.position, ekf.model.P, dt[0]
        ekf.propagate_run(force, increments, dt)
        f_n = r @ force[0]
        phi = np.eye(9)
        phi[0:3, 3:6] = h * np.eye(3)
        phi[3:6, 6:9] = skew(f_n) * h
        q = np.diag(np.repeat([ekf.model.q_pos, ekf.model.q_vel, ekf.model.q_att], 3))
        np.testing.assert_allclose(ekf.attitude, r @ increments[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(ekf.velocity, v + (f_n + GRAVITY_ENU) * h, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(ekf.position, p + (v + (f_n + GRAVITY_ENU) * h) * h, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(ekf.model.P, phi @ cov @ phi.T + q * h, rtol=1e-13, atol=1e-15)


def _advance_imu_schedule(step_ends, gps, epochs):
    """(stops, ends) of a per-stop loop: at each epoch, every valid fix up to
    it (within 1e-9), then the epoch; each stop advances the IMU while the
    next step ends by it (within 1e-9). Fix j is j, epoch e is -1 - e."""
    step_ends = step_ends.tolist()
    stops, ends = [], []
    i_imu = i_gps = 0

    def advance(until):
        nonlocal i_imu
        while i_imu < len(step_ends) and step_ends[i_imu] <= until + 1e-9:
            i_imu += 1
        ends.append(i_imu)

    for e, t_k in enumerate(epochs):
        while i_gps < len(gps) and gps.t[i_gps] <= t_k + 1e-9:
            i_gps += 1
            if gps.valid[i_gps - 1]:
                stops.append(i_gps - 1)
                advance(gps.t[i_gps - 1])
        stops.append(-1 - e)
        advance(t_k)
    return stops, ends


def _fixes(times, valid=None) -> GpsStream:
    n = len(times)
    return GpsStream(
        t=times, lat=np.full(n, 0.48), lon=np.full(n, 0.3), height=np.full(n, 50.0), hdop=np.ones(n),
        valid=np.ones(n, dtype=bool) if valid is None else valid,
    )


def _imu_stream(t) -> ImuStream:
    """Level and at rest, with a slow yaw."""
    n = len(t)
    return ImuStream(t=t, specific_force=np.tile([0.0, 0.0, 9.80665], (n, 1)), angular_rate=np.tile([0.0, 0.0, 0.1], (n, 1)))


def _pass_scenario(imu_t, gps) -> types.SimpleNamespace:
    return types.SimpleNamespace(imu=_imu_stream(imu_t), gps=gps, origin=GeodeticPoint(0.48, 0.3, 50.0))


class TestStopSchedule:
    EPOCHS = np.arange(1, 6) * 0.1

    @pytest.mark.parametrize(
        "imu_end, fix_times, valid",
        [
            pytest.param(1.0, [0.2, 0.3], None, id="fix-at-an-epoch"),
            pytest.param(1.0, [0.2 + 5e-10, 0.3 + 2e-9], None, id="fix-within-eps-after-an-epoch"),
            pytest.param(1.0, [0.15, 0.25, 0.35], [True, False, True], id="invalid-fix"),
            pytest.param(1.0, [0.25, 0.55, 0.7, 0.9], None, id="fixes-after-the-last-epoch"),
            pytest.param(0.32, [0.15, 0.45], None, id="imu-ends-before-the-last-epoch"),
            pytest.param(1.0, [], None, id="no-fix"),
        ],
    )
    def test_matches_a_per_stop_advance(self, imu_end, fix_times, valid):
        t = np.arange(0.0, imu_end, 0.01)
        gaps = np.append(np.diff(t), t[-1] - t[-2])
        gps = _fixes(fix_times, None if valid is None else np.array(valid))
        stops, ends = _stop_schedule(t + gaps, gps, self.EPOCHS)
        assert (stops.tolist(), ends.tolist()) == _advance_imu_schedule(t + gaps, gps, self.EPOCHS)

    def test_nonpositive_dt_raises_inside_the_propagated_range_only(self):
        t = np.arange(100) * 0.01
        inside, past = t.copy(), t.copy()
        inside[50] = inside[49]
        past[95] = past[94]
        with pytest.raises(ValueError, match=r"dt must be > 0, got 0\.0"):
            ekf_pass(_pass_scenario(inside, _fixes([0.3])), [0.5, 0.8])
        positions, _, _, _ = ekf_pass(_pass_scenario(past, _fixes([0.3])), [0.5, 0.8])
        assert np.all(np.isfinite(positions))

    def test_too_few_imu_samples_is_missing_input(self):
        with pytest.raises(MissingInputError, match="at least two samples"):
            ekf_pass(_pass_scenario(np.array([0.0]), _fixes([])), [0.5])

    def test_a_long_epoch_gap_keeps_the_working_memory(self):
        # fixes would split the gap into short segments, so they stop before it
        scenario = _pass_scenario(np.arange(6000) * 0.01, _fixes(np.arange(1, 10) * 1.0))
        epochs = np.arange(1, 600) * 0.1

        def peak(epochs):
            tracemalloc.start()
            try:
                ekf_pass(scenario, epochs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(epochs[(epochs <= 10.0) | (epochs >= 40.0)]) <= 1.5 * peak(epochs)
