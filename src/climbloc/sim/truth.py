"""Analytic ground-truth trajectory: a paused, mostly-vertical wall sweep.

The robot follows a smooth profile in warped time tau: the vertical axis does
one raised-cosine sweep per `vertical_period`, the horizontal axis a small
sine sway, and heading sways with it. Pause segments freeze tau via a C1
speed factor (cubic smoothstep ramps), so position stays twice
differentiable through every pause boundary while velocity comes out exactly
zero inside the dwell.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.types import TruthStream
from .scenario import PauseSegment, ScenarioConfig, TrajectoryProfile


def _smoothstep(xi: float) -> float:
    return 3.0 * xi * xi - 2.0 * xi**3


def _smoothstep_integral(xi: float) -> float:
    # integral of _smoothstep from 0 to xi
    return xi**3 - 0.5 * xi**4


def pause_speed(t: float, pauses) -> float:
    """Trajectory speed factor in [0, 1]; 0 inside a dwell, 1 in free motion."""
    for p in pauses:
        if p.start - p.ramp < t < p.end + p.ramp:
            if t < p.start:
                return 1.0 - _smoothstep((t - p.start + p.ramp) / p.ramp)
            if t <= p.end:
                return 0.0
            return _smoothstep((t - p.end) / p.ramp)
    return 1.0


def _time_lost(t: float, p: PauseSegment) -> float:
    if t <= p.start - p.ramp:
        return 0.0
    if t < p.start:
        return p.ramp * _smoothstep_integral((t - p.start + p.ramp) / p.ramp)
    half = 0.5 * p.ramp
    if t <= p.end:
        return half + (t - p.start)
    held = half + (p.end - p.start)
    if t < p.end + p.ramp:
        xi = (t - p.end) / p.ramp
        return held + p.ramp * (xi - _smoothstep_integral(xi))
    return held + half


def warped_time(t: float, pauses) -> float:
    """Progress along the motion profile after removing time spent paused."""
    return t - sum(_time_lost(t, p) for p in pauses)


def _profile_state(tau: float, prof: TrajectoryProfile):
    wv = 2.0 * math.pi / prof.vertical_period
    wh = 2.0 * math.pi / prof.horizontal_period
    pos = (
        prof.horizontal_amplitude * math.sin(wh * tau),
        0.0,
        0.5 * prof.vertical_amplitude * (1.0 - math.cos(wv * tau)),
    )
    dpos = (
        prof.horizontal_amplitude * wh * math.cos(wh * tau),
        0.0,
        0.5 * prof.vertical_amplitude * wv * math.sin(wv * tau),
    )
    yaw = prof.yaw_amplitude * math.sin(wh * tau)
    return pos, dpos, yaw


def generate_truth(cfg: ScenarioConfig) -> tuple[TruthStream, np.ndarray]:
    """Sample the analytic profile on the IMU grid: n_steps + 1 points.

    Returns the truth stream and the (n,) yaw of each point; the attitude is
    a pure rotation by yaw about up, stored in the stream as the quaternion
    (cos yaw/2, 0, 0, sin yaw/2). The IMU simulator differences the yaw.
    """
    prof = cfg.profile
    t, position, velocity, yaw = [], [], [], []
    for i in range(cfg.n_steps + 1):
        t_i = i * cfg.dt
        tau = warped_time(t_i, prof.pauses)
        s = pause_speed(t_i, prof.pauses)
        pos, dpos, psi = _profile_state(tau, prof)
        t.append(t_i)
        position.append(pos)
        velocity.append([v * s for v in dpos])
        yaw.append(psi)
    yaw = np.array(yaw)
    quaternion = np.column_stack([np.cos(0.5 * yaw), np.zeros((len(yaw), 2)), np.sin(0.5 * yaw)])
    return TruthStream(t=t, position=position, velocity=velocity, quaternion=quaternion), yaw
