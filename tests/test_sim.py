"""Scenario generator tests: truth profile, sensor streams, determinism."""

import dataclasses

import numpy as np
import pytest

from climbloc.core import GRAVITY, GeodeticPoint, TruthStream, Vec3Enu, geodetic_to_enu
from climbloc.errors import ConfigError
from climbloc.sim import (
    NlosWindow,
    OcclusionWindow,
    PauseSegment,
    ScenarioConfig,
    ScenarioData,
    TrajectoryProfile,
    UwbNoise,
    BaroNoise,
    GpsNoise,
    ImuNoise,
    generate_truth,
    pause_speed,
    sensor_rng,
    simulate_baro,
    simulate_gps,
    simulate_imu,
    simulate_scenario,
    simulate_uwb,
    warped_time,
)
from climbloc.sim.scenario import IMU_STREAM
from climbloc.solvers import baro_inverse, uwb_geometric_fixes, uwb_inverse

QUIET_IMU = ImuNoise(accel_sigma=0.0, gyro_sigma=0.0, accel_bias=(0, 0, 0), gyro_bias=(0, 0, 0))
QUIET_GPS = GpsNoise(sigma_xy=0.0, sigma_z=0.0, occlusions=())
QUIET_UWB = UwbNoise(range_sigma=0.0, angle_sigma=0.0, nlos_windows=())
QUIET_BARO = BaroNoise(pressure_sigma=0.0, drift_rate=0.0)


def quiet_cfg(**overrides) -> ScenarioConfig:
    base = dict(
        duration=20.0,
        dt=0.01,
        profile=TrajectoryProfile(pauses=()),
        imu=QUIET_IMU,
        gps=QUIET_GPS,
        uwb=QUIET_UWB,
        baro=QUIET_BARO,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def level_truth(n, velocity=(0.0, 0.0, 0.0), start=(0.0, 0.0, 0.0)):
    """(stream, yaw): n level points 0.01 s apart at constant velocity."""
    truth = TruthStream(
        t=[i * 0.01 for i in range(n)],
        position=[[s + v * i * 0.01 for s, v in zip(start, velocity)] for i in range(n)],
        velocity=[velocity] * n,
        quaternion=[(1.0, 0.0, 0.0, 0.0)] * n,
    )
    return truth, np.zeros(n)


YAWING = TrajectoryProfile(yaw_amplitude=0.6, pauses=(PauseSegment(6.0, 9.0, ramp=1.0),))


def yawing_cfg(dt, imu=ImuNoise()):
    return quiet_cfg(duration=15.0, dt=dt, profile=YAWING, imu=imu)


def rz(yaw):
    """Body-to-ENU rotation by `yaw` about up."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def reference_imu(truth, yaw, cfg):
    """(forces, rates) one step at a time: R_i^T (dv/dt - g) and the axis-angle
    log of R_i^T R_{i+1} over dt, each plus bias and its accel-then-gyro draws."""
    rng = sensor_rng(cfg.seed, IMU_STREAM)
    forces, rates = [], []
    for i in range(len(truth) - 1):
        r_a, r_b = rz(yaw[i]), rz(yaw[i + 1])
        dt = truth.t[i + 1] - truth.t[i]
        accel = (truth.velocity[i + 1] - truth.velocity[i]) / dt
        forces.append(r_a.T @ (accel - [0.0, 0.0, -GRAVITY]) + cfg.imu.accel_bias
                      + rng.normal(0.0, 1.0, 3) * cfg.imu.accel_sigma)
        rel = r_a.T @ r_b
        axis = np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]]) / 2.0
        sin_angle = np.linalg.norm(axis)
        angle = np.arctan2(sin_angle, (np.trace(rel) - 1.0) / 2.0)
        rotvec = axis * (angle / sin_angle) if sin_angle > 0 else axis
        rates.append(rotvec / dt + cfg.imu.gyro_bias + rng.normal(0.0, 1.0, 3) * cfg.imu.gyro_sigma)
    return np.array(forces), np.array(rates)


def truth_rows(truth, times, dt):
    """Indices of the truth points at `times` on a grid of spacing dt."""
    return np.rint(np.asarray(times) / dt).astype(int)


class TestTruth:
    def test_point_count(self):
        cfg = quiet_cfg(duration=100.0, dt=0.1)
        truth, yaw = generate_truth(cfg)
        assert len(truth) == len(yaw) == 1001

    def test_quaternion_is_the_yaw_about_up(self):
        cfg = yawing_cfg(0.01)
        truth, yaw = generate_truth(cfg)
        tau = np.array([warped_time(t, YAWING.pauses) for t in truth.t])
        analytic = YAWING.yaw_amplitude * np.sin(2 * np.pi / YAWING.horizontal_period * tau)
        np.testing.assert_allclose(yaw, analytic, rtol=0, atol=1e-15)
        assert np.ptp(yaw) > 0.5
        expected = np.column_stack([np.cos(yaw / 2), np.zeros((len(yaw), 2)), np.sin(yaw / 2)])
        np.testing.assert_array_equal(truth.quaternion, expected)

    def test_zero_amplitudes_hold_still(self):
        prof = TrajectoryProfile(vertical_amplitude=0.0, horizontal_amplitude=0.0, pauses=())
        truth, _ = generate_truth(quiet_cfg(duration=5.0, profile=prof))
        np.testing.assert_allclose(truth.position, 0.0, atol=0)
        np.testing.assert_allclose(truth.velocity, 0.0, atol=0)

    def test_vertical_dominates_horizontal(self):
        pos = generate_truth(ScenarioConfig())[0].position
        vertical = pos[:, 2].max() - pos[:, 2].min()
        horizontal = max(pos[:, 0].max() - pos[:, 0].min(), pos[:, 1].max() - pos[:, 1].min())
        assert vertical / horizontal >= 5.0

    def test_dt_must_be_below_duration(self):
        with pytest.raises(ConfigError):
            quiet_cfg(duration=1.0, dt=1.0)

    def test_pause_freezes_motion(self):
        prof = TrajectoryProfile(pauses=(PauseSegment(5.0, 8.0, ramp=1.0),))
        truth, _ = generate_truth(quiet_cfg(duration=12.0, profile=prof))
        inside = (truth.t > 5.0) & (truth.t < 8.0)
        assert inside.any()
        np.testing.assert_allclose(truth.velocity[inside], 0.0, atol=1e-15)
        held = truth.position[inside]
        np.testing.assert_allclose(held, np.broadcast_to(held[0], held.shape), atol=1e-12)

    def test_trajectory_stays_smooth_through_pause(self):
        # numerical acceleration must stay bounded across ramp boundaries
        prof = TrajectoryProfile(pauses=(PauseSegment(5.0, 8.0, ramp=1.0),))
        pos = generate_truth(quiet_cfg(duration=12.0, profile=prof))[0].position
        acc = np.diff(pos, n=2, axis=0) / 0.01**2
        jerk = np.diff(acc, axis=0) / 0.01
        assert np.max(np.abs(acc)) < 5.0
        assert np.max(np.abs(jerk)) < 30.0

    def test_warp_closed_form(self):
        pauses = (PauseSegment(5.0, 8.0, ramp=1.0),)
        assert warped_time(4.0, pauses) == pytest.approx(4.0)
        # after the pause the warp lags by dwell plus one full ramp equivalent
        assert warped_time(10.0, pauses) == pytest.approx(10.0 - 3.0 - 1.0)
        assert pause_speed(6.0, pauses) == 0.0
        assert pause_speed(3.0, pauses) == 1.0
        ts = np.linspace(0.0, 12.0, 2401)
        taus = [warped_time(float(t), pauses) for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(taus, taus[1:]))


class TestImuSim:
    def test_static_truth_measures_gravity_reaction(self):
        stream = simulate_imu(*level_truth(5, start=(0.0, 0.0, 2.0)), quiet_cfg())
        assert len(stream) == 4
        np.testing.assert_allclose(stream.specific_force, [[0.0, 0.0, 9.80665]] * 4, atol=1e-12)
        np.testing.assert_allclose(stream.angular_rate, 0.0, atol=1e-12)

    def test_constant_velocity_measures_gravity_reaction(self):
        stream = simulate_imu(*level_truth(5, velocity=(0.3, 0.0, 0.0)), quiet_cfg())
        np.testing.assert_allclose(stream.specific_force, [[0.0, 0.0, 9.80665]] * 4, atol=1e-12)

    def test_bias_recovered_by_stream_mean(self):
        imu_cfg = ImuNoise(accel_sigma=0.0, gyro_sigma=0.0,
                           accel_bias=(0.05, -0.03, 0.08), gyro_bias=(0.001, 0.0, -0.002))
        cfg = quiet_cfg(imu=imu_cfg)
        stream = simulate_imu(*level_truth(50), cfg)
        mean_f = np.mean(stream.specific_force, axis=0)
        mean_w = np.mean(stream.angular_rate, axis=0)
        np.testing.assert_allclose(mean_f - np.array([0, 0, 9.80665]), imu_cfg.accel_bias, atol=1e-12)
        np.testing.assert_allclose(mean_w, imu_cfg.gyro_bias, atol=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.02])
    def test_matches_per_step_reference_while_yawing(self, dt):
        cfg = yawing_cfg(dt)
        truth, yaw = generate_truth(cfg)
        stream = simulate_imu(truth, yaw, cfg)
        forces, rates = reference_imu(truth, yaw, cfg)
        np.testing.assert_array_equal(stream.t, truth.t[:-1])
        np.testing.assert_allclose(stream.specific_force, forces, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stream.angular_rate, rates, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.02])
    def test_noiseless_stream_integrates_to_truth_velocity(self, dt):
        cfg = yawing_cfg(dt, imu=QUIET_IMU)
        truth, yaw = generate_truth(cfg)
        stream = simulate_imu(truth, yaw, cfg)
        accel = np.array([rz(psi) @ f for psi, f in zip(yaw, stream.specific_force)])
        dv = (accel + [0.0, 0.0, -GRAVITY]) * np.diff(truth.t)[:, None]
        velocity = truth.velocity[0] + np.cumsum(dv, axis=0)
        np.testing.assert_allclose(velocity, truth.velocity[1:], rtol=0, atol=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            simulate_imu(*level_truth(1), quiet_cfg())


class TestGpsSim:
    def test_noiseless_fix_round_trips_to_truth(self):
        cfg = quiet_cfg()
        truth, _ = generate_truth(cfg)
        fixes = simulate_gps(truth, cfg, cfg.origin)
        assert len(fixes) == 200
        rows = truth_rows(truth, fixes.t, cfg.dt)
        for i in range(0, len(fixes), 17):
            fix = GeodeticPoint(fixes.lat[i], fixes.lon[i], fixes.height[i])
            err = geodetic_to_enu(fix, cfg.origin).as_array() - truth.position[rows[i]]
            assert np.linalg.norm(err) < 1e-9

    def test_occlusion_bias_is_exact_at_zero_sigma(self):
        occ = OcclusionWindow(5.0, 10.0, bias=(2.0, 0.0, 0.0), hdop_inflation=3.0)
        cfg = quiet_cfg(gps=GpsNoise(sigma_xy=0.0, sigma_z=0.0, occlusions=(occ,)))
        truth, _ = generate_truth(cfg)
        fixes = simulate_gps(truth, cfg, cfg.origin)
        rows = truth_rows(truth, fixes.t, cfg.dt)
        for i, t in enumerate(fixes.t):
            enu = geodetic_to_enu(GeodeticPoint(fixes.lat[i], fixes.lon[i], fixes.height[i]), cfg.origin)
            err = enu.as_array() - truth.position[rows[i]]
            if 5.0 <= t <= 10.0:
                np.testing.assert_allclose(err, [2.0, 0.0, 0.0], atol=1e-9)
                assert fixes.hdop[i] == pytest.approx(3.0)
            else:
                np.testing.assert_allclose(err, [0.0, 0.0, 0.0], atol=1e-9)
                assert fixes.hdop[i] == pytest.approx(1.0)

    def test_full_dropout_silences_window(self):
        occ = OcclusionWindow(5.0, 10.0, dropout=1.0)
        cfg = quiet_cfg(gps=GpsNoise(sigma_xy=0.0, sigma_z=0.0, occlusions=(occ,)))
        truth, _ = generate_truth(cfg)
        times = simulate_gps(truth, cfg, cfg.origin).t.tolist()
        assert times
        assert not [t for t in times if 5.0 <= t <= 10.0]
        assert [t for t in times if t < 5.0] and [t for t in times if t > 10.0]


class TestUwbSim:
    def test_noiseless_round_trip_within_parameterization_bound(self):
        cfg = quiet_cfg()
        truth, _ = generate_truth(cfg)
        uwb = simulate_uwb(truth, cfg.anchor, cfg)[::13]
        positions, _ = uwb_geometric_fixes(uwb, cfg.anchor)
        err = np.linalg.norm(positions - truth.position[truth_rows(truth, uwb.t, cfg.dt)], axis=1)
        bound = np.sin(np.abs(uwb.alpha)) * np.sin(np.abs(uwb.beta)) * uwb.range
        assert np.all(err <= bound + 1e-9)

    def test_nlos_range_gap_is_the_configured_bias(self):
        uwb_cfg = UwbNoise(range_sigma=0.0, angle_sigma=0.0,
                           nlos_windows=(NlosWindow(5.0, 10.0, 1.5),))
        cfg = quiet_cfg(uwb=uwb_cfg)
        truth, _ = generate_truth(cfg)
        uwb = simulate_uwb(truth, cfg.anchor, cfg)
        for i, row in enumerate(truth_rows(truth, uwb.t, cfg.dt)):
            d_los, _, _ = uwb_inverse(Vec3Enu.from_array(truth.position[row]), cfg.anchor)
            gap = uwb.range[i] - d_los
            if 5.0 <= uwb.t[i] <= 10.0:
                assert gap == pytest.approx(1.5, abs=1e-12)
                assert uwb.nlos[i] == pytest.approx(0.9)
            else:
                assert gap == pytest.approx(0.0, abs=1e-12)
                assert uwb.nlos[i] == pytest.approx(0.05)


class TestBaroSim:
    def test_reference_pressure_at_ground(self):
        prof = TrajectoryProfile(vertical_amplitude=0.0, horizontal_amplitude=0.0, pauses=())
        cfg = quiet_cfg(profile=prof)
        stream = simulate_baro(generate_truth(cfg)[0], cfg)
        np.testing.assert_allclose(stream.pressure, cfg.baro.reference.p0, rtol=0, atol=1e-9)

    def test_internal_altitude_matches_truth_when_quiet(self):
        cfg = quiet_cfg()
        truth, _ = generate_truth(cfg)
        stream = simulate_baro(truth, cfg)
        up = truth.position[truth_rows(truth, stream.t, cfg.dt), 2]
        np.testing.assert_allclose(stream.internal_altitude, up, rtol=0, atol=1e-9)

    def test_linear_drift_offset_at_end(self):
        prof = TrajectoryProfile(vertical_amplitude=0.0, horizontal_amplitude=0.0, pauses=())
        cfg = quiet_cfg(duration=100.0, profile=prof,
                        baro=BaroNoise(pressure_sigma=0.0, drift_rate=0.1))
        samples = simulate_baro(generate_truth(cfg)[0], cfg)
        assert samples.t[-1] == pytest.approx(100.0)
        assert samples.pressure[-1] - cfg.baro.reference.p0 == pytest.approx(10.0, abs=1e-9)


class TestScenarioAssembly:
    SHORT_PROFILE = TrajectoryProfile(pauses=(PauseSegment(10.0, 14.0),))

    def test_streams_and_determinism(self):
        cfg = ScenarioConfig(duration=30.0, profile=self.SHORT_PROFILE)
        a = simulate_scenario(cfg)
        b = simulate_scenario(cfg)
        assert a.truth == b.truth
        assert a.imu == b.imu
        assert a.gps == b.gps
        assert a.uwb == b.uwb
        assert a.baro == b.baro
        assert len(a.truth) == cfg.n_steps + 1

    def test_sensor_substreams_are_independent(self):
        base = ScenarioConfig(duration=30.0, profile=self.SHORT_PROFILE)
        loud_baro = ScenarioConfig(duration=30.0, profile=self.SHORT_PROFILE,
                                   baro=BaroNoise(pressure_sigma=50.0))
        assert simulate_scenario(base).gps == simulate_scenario(loud_baro).gps
        assert simulate_scenario(base).uwb == simulate_scenario(loud_baro).uwb

    def test_rejects_unordered_stream(self):
        cfg = quiet_cfg(duration=2.0)
        data = simulate_scenario(cfg)
        with pytest.raises(ValueError, match="baro stream is not time-ordered"):
            ScenarioData(
                truth=data.truth, imu=data.imu, gps=data.gps, uwb=data.uwb,
                baro=data.baro[::-1], anchor=data.anchor,
                baro_reference=data.baro_reference, origin=data.origin,
            )

    def test_accepts_tied_timestamps(self):
        data = simulate_scenario(quiet_cfg(duration=2.0))
        t = data.baro.t.copy()
        t[1] = t[0]
        tied = dataclasses.replace(data.baro, t=t)
        assert dataclasses.replace(data, baro=tied).baro == tied

    def test_nlos_bias_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            NlosWindow(1.0, 2.0, -0.5)
