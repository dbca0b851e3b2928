"""Core types: windows, rotations, geodesy."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climbloc.core import (
    AnchorPose,
    BaroStream,
    GeodeticPoint,
    GpsStream,
    Rotation,
    StreamValueError,
    UwbMeasurement,
    UwbStream,
    Vec3Enu,
    enu_to_geodetic,
    geodetic_to_enu,
)
from climbloc.models import baro_inputs, uwb_inputs
from climbloc.sim import ScenarioConfig, TrajectoryProfile, simulate_scenario
from climbloc.solvers import uwb_geometric_fixes
from climbloc.solvers.ins import rotation_increments

ANCHOR = AnchorPose(Vec3Enu(0.0, 0.0, 0.0), Rotation.identity())


def _streams(n):
    i = np.arange(n, dtype=float)
    baro = BaroStream(t=0.1 * i, pressure=1e5 + i, internal_altitude=-0.5 * i)
    uwb = UwbStream(t=0.1 * i, range=1.0 + i, alpha=0.01 * i, beta=-0.01 * i, nlos=np.zeros(n))
    return baro, uwb


def _uwb_fix(uwb, i):
    """The geometric fix of UWB sample i, solved alone."""
    return uwb_geometric_fixes(uwb[i : i + 1], ANCHOR)[0][0].tolist()


class TestSlidingWindow:
    # A sensor window is a row of the one window builder: row i holds raw
    # samples i..i+k-1, the window a replay holds after sample i+k-1, then
    # the classical solution at sample i+k-1 (baro: the internal altitude;
    # UWB: the geometric fix).

    def test_push_below_capacity(self):
        baro, uwb = _streams(1)
        assert baro_inputs(baro, 3).shape == (0, 4)
        assert uwb_inputs(uwb, ANCHOR, 3).shape == (0, 12)
        baro, uwb = _streams(3)
        assert baro_inputs(baro, 3).shape == (1, 4)
        assert uwb_inputs(uwb, ANCHOR, 3).shape == (1, 12)

    def test_fifo_eviction(self):
        baro, uwb = _streams(4)
        b = baro_inputs(baro, 3)
        u = uwb_inputs(uwb, ANCHOR, 3)
        assert b[-1].tolist() == baro.pressure[1:].tolist() + [baro.internal_altitude[3]]
        raw = np.column_stack([uwb.range, uwb.alpha, uwb.beta])
        assert u[-1].tolist() == raw[1:].ravel().tolist() + _uwb_fix(uwb, 3)

    def test_out_of_order_rejected(self):
        # the windows assume ordered streams; the scenario is where that is checked
        data = simulate_scenario(ScenarioConfig(duration=2.0, profile=TrajectoryProfile(pauses=())))
        t = data.uwb.t.copy()
        t[[0, 1]] = t[[1, 0]]
        with pytest.raises(ValueError):
            dataclasses.replace(data, uwb=dataclasses.replace(data.uwb, t=t))

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_contents_equal_tail_of_replay(self, n, k):
        baro, uwb = _streams(n)
        b = baro_inputs(baro, k)
        u = uwb_inputs(uwb, ANCHOR, k)
        assert b.shape == (max(n - k + 1, 0), k + 1)
        assert u.shape == (max(n - k + 1, 0), 3 * k + 3)
        for i in range(n - k + 1):
            assert b[i].tolist() == baro.pressure[i : i + k].tolist() + [baro.internal_altitude[i + k - 1]]
            assert u[i].tolist() == [
                v for j in range(i, i + k) for v in (uwb.range[j], uwb.alpha[j], uwb.beta[j])
            ] + _uwb_fix(uwb, i + k - 1)


def _rotation(rotvec) -> Rotation:
    """The rotation exp(skew(rotvec)), built by the INS exponential map."""
    return Rotation(rotation_increments(np.array([rotvec], dtype=float), np.ones(1))[0])


class TestRotation:
    def test_identity_apply(self):
        v = Rotation.identity().apply([1.0, 2.0, 3.0])
        assert np.allclose(v, [1, 2, 3], atol=0)

    def test_yaw_90_permutes_axes(self):
        # 90 degrees about up: east -> north
        r = _rotation([0.0, 0.0, math.pi / 2])
        assert np.allclose(r.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Rotation([[1, 0, 0], [0, 1, 0], [0, 0, 1.001]])

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation(np.diag([1.0, 1.0, -1.0]))

    @given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
           st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)))
    def test_norm_preserved(self, rotvec, v):
        r = _rotation(rotvec)
        assert abs(np.linalg.norm(r.apply(v)) - np.linalg.norm(np.asarray(v))) < 1e-9


ORIGIN_EQUATOR = GeodeticPoint(lat=0.0, lon=0.0, height=0.0)


class TestGeodesy:
    def test_origin_maps_to_zero(self):
        v = geodetic_to_enu(ORIGIN_EQUATOR, ORIGIN_EQUATOR)
        assert np.allclose(v.as_array(), 0.0, atol=1e-12)

    def test_meridian_offset_at_equator(self):
        # oracle: WGS-84 meridian radius of curvature at the equator,
        #   M = a(1 - e^2) = 6335439.32729 m, north = M * dphi = 1.1057427582 m
        dphi = math.radians(1e-5)
        fix = GeodeticPoint(lat=dphi, lon=0.0, height=0.0)
        v = geodetic_to_enu(fix, ORIGIN_EQUATOR)
        assert v.north == pytest.approx(1.1057427582, abs=1e-6)
        assert v.east == 0.0
        assert abs(v.up) < 1e-6

    def test_pure_height_offset(self):
        fix = GeodeticPoint(lat=0.0, lon=0.0, height=5.0)
        v = geodetic_to_enu(fix, ORIGIN_EQUATOR)
        assert np.allclose(v.as_array(), [0.0, 0.0, 5.0], atol=1e-9)

    def test_invalid_latitude_rejected(self):
        with pytest.raises(ValueError):
            GeodeticPoint(lat=2.0, lon=0.0, height=0.0)
        with pytest.raises(ValueError, match="lat"):
            GpsStream(t=[0.0], lat=[1.8], lon=[0.0], height=[0.0], hdop=[1.0], valid=[True])

    @settings(max_examples=60)
    @given(
        st.floats(-1.4, 1.4),  # origin latitude, away from poles
        st.floats(-math.pi, math.pi),
        st.floats(-100, 1000),
        st.floats(-9000, 9000),
        st.floats(-9000, 9000),
        st.floats(-500, 500),
    )
    def test_round_trip_within_10km(self, lat0, lon0, h0, east, north, up):
        origin = GeodeticPoint(lat0, lon0, h0)
        geo = enu_to_geodetic(Vec3Enu(east, north, up), origin)
        back = geodetic_to_enu(geo, origin)
        assert abs(back.east - east) < 1e-6
        assert abs(back.north - north) < 1e-6
        assert abs(back.up - up) < 1e-6

    def test_geodetic_round_trip_angles(self):
        origin = GeodeticPoint(math.radians(31.0), math.radians(121.5), 20.0)
        fix = GeodeticPoint(math.radians(31.02), math.radians(121.48), 60.0)
        v = geodetic_to_enu(fix, origin)
        back = enu_to_geodetic(v, origin)
        assert abs(back.lat - fix.lat) < 1e-9
        assert abs(back.lon - fix.lon) < 1e-9
        assert abs(back.height - fix.height) < 1e-6


class TestValidation:
    def test_uwb_angle_domain(self):
        with pytest.raises(ValueError):
            UwbMeasurement(t=0.0, range=1.0, alpha=math.pi / 2, beta=0.0)

    def test_uwb_negative_range(self):
        with pytest.raises(ValueError):
            UwbMeasurement(t=0.0, range=-1.0, alpha=0.0, beta=0.0)

    def test_vec3_finite(self):
        with pytest.raises(ValueError):
            Vec3Enu(float("nan"), 0.0, 0.0)


def _with_value(stream, column, index, value):
    """A copy of the stream's columns with one value replaced, rebuilt (and so validated)."""
    columns = {f.name: np.array(getattr(stream, f.name)) for f in dataclasses.fields(stream)}
    columns[column][index] = value
    return type(stream)(**columns)


class TestStreamValidation:
    SCENARIO = simulate_scenario(ScenarioConfig(duration=2.0, profile=TrajectoryProfile(pauses=())))

    @pytest.mark.parametrize(
        "stream, column, index, value, component",
        [
            ("imu", "specific_force", (2, 1), math.nan, 1),
            ("imu", "t", 2, math.inf, None),
            ("gps", "lat", 2, 1.6, None),
            ("gps", "hdop", 2, -0.5, None),
            ("uwb", "range", 2, -0.1, None),
            ("uwb", "alpha", 2, math.pi / 2, None),
            ("uwb", "beta", 2, -math.pi / 2, None),
            ("uwb", "nlos", 2, 1.5, None),
            ("uwb", "nlos", 2, -0.1, None),
            ("baro", "pressure", 2, 0.0, None),
            ("truth", "quaternion", 2, 0.0, None),
            ("baro", "t", 2, 0.0, None),
        ],
    )
    def test_rule_breach_names_row_and_column(self, stream, column, index, value, component):
        with pytest.raises(StreamValueError) as info:
            _with_value(getattr(self.SCENARIO, stream), column, index, value)
        assert (info.value.row, info.value.column, info.value.component) == (2, column, component)

    def test_valid_streams_are_read_only_columns(self):
        uwb = self.SCENARIO.uwb
        assert uwb.range.dtype == np.float64 and uwb.range.shape == (len(uwb),)
        assert self.SCENARIO.truth.quaternion.shape == (len(self.SCENARIO.truth), 4)
        with pytest.raises(ValueError):
            uwb.range[0] = 1.0
        assert self.SCENARIO.gps.valid.dtype == bool

    def test_rows_are_sliced_not_indexed(self):
        baro = self.SCENARIO.baro
        assert len(baro[3:7]) == 4 and baro[3:7].t[0] == baro.t[3]
        with pytest.raises(TypeError):
            baro[3]

