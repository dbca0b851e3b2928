"""Epoch-aligned fusion front-end and the full attention-fusion pipeline.

`collect_fusion_frames` builds one frame per fusion epoch from three passes
over whole streams. The EKF pass is the only sequential loop: it drives the
GPS/INS filter at the IMU rate, applies each valid GPS fix in time order, and
records the estimate, HDOP and innovation at every epoch. The UWB and baro
passes compute one estimate per measurement (the classical solution until
the FCNN window fills, then one batched FCNN pass) and hold it at each epoch
up to the next measurement. A modality's estimate window is its last L epoch
estimates, once L epochs have it. Training and application consume the same
frames, so the two phases see identical inputs by construction.

`run_fusion` stacks the frames and attends over them in one call
(`attention.attend`), then UKF-updates per epoch.
Epochs that cannot fuse (an axis with every estimate window still filling)
pass the GPS/INS solution through with inflated sigma; the application
pipeline additionally drops the leading run of those, so its trajectory
starts at the first fused epoch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.geodesy import GeodeticPoint, geodetic_to_enu
from ..core.types import Rotation, Vec3Enu
from ..errors import MissingInputError
from ..models import SIGMA_MIN, baro_fcnn_infer, uwb_fcnn_infer
from ..solvers.baro import baro_altitude
from ..solvers.ins import GpsInsEkf, InsState, rotation_increments
from ..solvers.types import PoseEstimate
from ..solvers.uwb import uwb_geometric_fixes
from .attention import (
    AXES,
    AXIS_MASK,
    AXIS_MODALITIES,
    MODALITIES,
    N_RELIABILITY,
    AttentionParams,
    FusedObservation,
    ReliabilityScores,
    attend,
)
from .ukf import UkfState, ukf_step

log = logging.getLogger("climbloc.fusion")

DEFAULT_L = 10
WARMUP_SIGMA_INFLATION = 3.0
_EPS = 1e-9
# runs start at the local origin, at rest, level
_INITIAL_STATE = InsState(Vec3Enu(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Rotation.identity())


@dataclass(frozen=True)
class FusionFrame:
    """Everything one fusion epoch needs, precomputed by the front-end."""

    t: float
    windows: dict        # modality -> flattened estimate window, None until full
    reliability: ReliabilityScores
    estimates: dict      # modality -> {axis: meters}; absent modalities omitted
    sigmas: dict         # modality -> {axis: sigma}
    fallback: PoseEstimate
    truth_position: np.ndarray | None = None

    def ready(self) -> tuple:
        return tuple(
            m for m in MODALITIES if self.windows.get(m) is not None and m in self.estimates
        )

    def fusible(self) -> bool:
        ready = set(self.ready())
        return all(any(m in ready for m in AXIS_MODALITIES[s]) for s in AXES)


def stack_frames(frames, encoders: dict) -> dict:
    """Frames stacked into arrays, one row per frame, as `attend` reads them.

    Keys: each modality -> (n, L*w) flattened estimate windows, as wide as
    the encoder's input; "ready" -> (n, modality) bool; "estimates" and
    "sigmas" -> (n, modality, axis) meters; "reliability" -> (n, modality,
    N_RELIABILITY); and, when every frame has one, "truth" -> (n, axis)
    meters. Entries of a modality that is not ready in a row (no window or
    no estimate) are 0 and masked out through "ready", as are the estimates
    and sigmas of axes a modality cannot see.
    """
    n, n_mod = len(frames), len(MODALITIES)
    batch = {m: np.zeros((n, encoders[m].layer_sizes[0])) for m in MODALITIES}
    batch["ready"] = np.zeros((n, n_mod), dtype=bool)
    batch["estimates"] = np.zeros((n, n_mod, len(AXES)))
    batch["sigmas"] = np.zeros((n, n_mod, len(AXES)))
    batch["reliability"] = np.array(
        [[getattr(f.reliability, m) for m in MODALITIES] for f in frames], dtype=float
    ).reshape(n, n_mod, N_RELIABILITY)
    if all(f.truth_position is not None for f in frames):
        batch["truth"] = np.array([f.truth_position for f in frames], dtype=float).reshape(n, len(AXES))
    for i, f in enumerate(frames):
        ready = f.ready()
        for j, m in enumerate(MODALITIES):
            if m not in ready:
                continue
            window = np.ravel(f.windows[m])
            if len(window) != batch[m].shape[1]:
                raise ValueError(f"{m} window length {len(window)} != encoder input {batch[m].shape[1]}")
            batch["ready"][i, j] = True
            batch[m][i] = window
            batch["estimates"][i, j] = [f.estimates[m].get(s, 0.0) for s in AXES]
            batch["sigmas"][i, j] = [f.sigmas[m].get(s, 0.0) for s in AXES]
    return batch


def epoch_times(scenario) -> list:
    """Fusion epochs: timestamps of the slowest measurement stream.

    Slowness is judged by the widest minimum inter-sample gap; ties go to
    the densest stream. Faster streams are latest-sample-held at each epoch.
    """
    streams = [s.t for s in (scenario.uwb, scenario.baro, scenario.gps) if len(s) >= 2]
    if streams:
        slowest = max(streams, key=lambda t: (float(np.min(np.diff(t))), len(t)))
        return slowest.tolist()
    times = sorted({t for s in (scenario.uwb, scenario.baro, scenario.gps) for t in s.t.tolist()})
    if not times:
        raise MissingInputError("no measurement stream to define fusion epochs")
    return times


def ekf_pass(scenario, epochs):
    """GPS/INS filter over the epochs: (estimates, last HDOP, last innovation) per epoch.

    Each valid GPS fix up to an epoch is applied after propagating the IMU to
    the fix time; the filter is then propagated to the epoch itself.
    """
    imu = scenario.imu
    if len(imu) < 2:
        raise MissingInputError("fusion needs an IMU stream with at least two samples")
    gaps = np.diff(imu.t)
    gaps = np.append(gaps, gaps[-1])
    step_ends = (imu.t + gaps).tolist()
    increments = rotation_increments(imu.angular_rate, gaps)
    ekf = GpsInsEkf(_INITIAL_STATE)
    gps = scenario.gps
    fixes = list(zip(gps.t.tolist(), gps.valid.tolist(), gps.lat.tolist(), gps.lon.tolist(),
                     gps.height.tolist(), gps.hdop.tolist()))
    i_imu = i_gps = 0

    def advance_imu(until: float):
        nonlocal i_imu
        end = i_imu
        while end < len(step_ends) and step_ends[end] <= until + _EPS:
            end += 1
        if end > i_imu:
            ekf.propagate_run(imu.specific_force[i_imu:end], increments[i_imu:end], gaps[i_imu:end])
            i_imu = end

    estimates, hdop, innovation = [], [], []
    for t_k in epochs:
        while i_gps < len(fixes) and fixes[i_gps][0] <= t_k + _EPS:
            t_fix, valid, lat, lon, height, fix_hdop = fixes[i_gps]
            i_gps += 1
            if not valid:
                continue
            advance_imu(t_fix)
            ekf.update(geodetic_to_enu(GeodeticPoint(lat, lon, height), scenario.origin), fix_hdop)
        advance_imu(t_k)
        estimates.append(ekf.estimate(t_k))
        hdop.append(ekf.last_hdop)
        innovation.append(ekf.last_innovation)
    return estimates, hdop, innovation


def _latest(stream, epochs: np.ndarray) -> np.ndarray:
    """Per epoch, the index of the latest sample at or before it; -1 before the first."""
    return np.searchsorted(stream.t, epochs + _EPS, side="right") - 1


def _held(values: np.ndarray, latest: np.ndarray) -> np.ndarray:
    """Per-sample values held at each epoch; NaN before the first sample."""
    out = np.full((len(latest), *values.shape[1:]), np.nan)
    on = latest >= 0
    out[on] = values[latest[on]]
    return out


def _first(present: np.ndarray) -> int:
    """Index of the first epoch that has the modality (len when none has)."""
    return int(np.argmax(present)) if present.any() else len(present)


def _uwb_pass(scenario, model, latest: np.ndarray):
    """Per-epoch UWB positions, sigmas and NLOS confidences.

    One estimate per measurement: the geometric fix until the FCNN window
    fills, then the FCNN's.
    """
    uwb = scenario.uwb
    n_geo = len(uwb) if model is None else min(model.k - 1, len(uwb))
    positions, sigmas = uwb_geometric_fixes(uwb[:n_geo], scenario.anchor)
    if model is not None:
        fcnn_pos, fcnn_sigma = uwb_fcnn_infer(model, uwb, scenario.anchor)
        positions = np.vstack([positions, fcnn_pos])
        sigmas = np.vstack([sigmas, fcnn_sigma])
    return _held(positions, latest), _held(sigmas, latest), _held(uwb.nlos, latest)


def _baro_pass(scenario, model, latest: np.ndarray, L: int):
    """Per-epoch baro altitudes and sigmas.

    One altitude per sample: the barometric formula's until the FCNN window
    fills, then the FCNN's. Before the window fills, the sigma is the spread
    (`_recent_spread`) of up to L previous epoch altitudes plus the current
    one, floored at SIGMA_MIN.
    """
    baro = scenario.baro
    n_pre = len(baro) if model is None else min(model.k - 1, len(baro))
    altitudes = np.array(
        [baro_altitude(p, scenario.baro_reference) for p in baro.pressure[:n_pre].tolist()], dtype=float
    )
    sigmas = np.full(n_pre, np.nan)
    if model is not None:
        fcnn_alt, fcnn_sigma = baro_fcnn_infer(model, baro)
        altitudes = np.concatenate([altitudes, fcnn_alt])
        sigmas = np.concatenate([sigmas, fcnn_sigma])
    alt_ep, sigma_ep = _held(altitudes, latest), _held(sigmas, latest)
    pre = (latest >= 0) & (latest < n_pre)
    spread = _recent_spread(alt_ep, _first(latest >= 0), L + 1)
    sigma_ep[pre] = np.maximum(np.sqrt(spread[pre]), SIGMA_MIN)
    return alt_ep, sigma_ep


def _recent_spread(values: np.ndarray, first: int, L: int) -> np.ndarray:
    """Per epoch, the population variance of the last <= L values from `first` on (0 before it).

    Deviations are taken from each epoch's own value first, so equal values
    give exactly 0.
    """
    tail = values[first:]
    recent = sliding_window_view(np.concatenate([np.full(L, np.nan), tail]), L)[1:] - tail[:, None]
    dev = recent - np.nanmean(recent, axis=1, keepdims=True)
    return np.concatenate([np.zeros(first), np.nanmean(dev * dev, axis=1)])


def _estimate_windows(values: np.ndarray, present: np.ndarray, L: int) -> list:
    """Per epoch, a copy of the last L epoch estimates flattened, once L epochs have the modality."""
    first = _first(present)
    return [
        values[e - L + 1 : e + 1].flatten() if e - first + 1 >= L else None
        for e in range(len(present))
    ]


def _axis_dict(values) -> dict:
    return {s: float(v) for s, v in zip(AXES, values)}


def collect_fusion_frames(
    scenario, uwb_model=None, baro_model=None, L: int = DEFAULT_L
) -> tuple[FusionFrame, ...]:
    """One FusionFrame per epoch, from the EKF, UWB and baro passes."""
    epochs = epoch_times(scenario)
    gps_est, hdop, innovation = ekf_pass(scenario, epochs)
    gps_pos = np.array([est.position.as_array() for est in gps_est], dtype=float)
    epoch_arr = np.asarray(epochs, dtype=float)
    uwb_latest = _latest(scenario.uwb, epoch_arr)
    uwb_pos, uwb_sigma, nlos = _uwb_pass(scenario, uwb_model, uwb_latest)
    baro_latest = _latest(scenario.baro, epoch_arr)
    baro_alt, baro_sigma = _baro_pass(scenario, baro_model, baro_latest, L)
    uwb_on, baro_on = uwb_latest >= 0, baro_latest >= 0
    baro_spread = _recent_spread(baro_alt, _first(baro_on), L)
    windows = {
        "gpsins": _estimate_windows(gps_pos, np.ones(len(epochs), dtype=bool), L),
        "uwb": _estimate_windows(uwb_pos, uwb_on, L),
        "baro": _estimate_windows(baro_alt, baro_on, L),
    }
    truth = scenario.truth.position_at(epochs) if len(scenario.truth) else None

    frames = []
    for e, t_k in enumerate(epochs):
        estimates = {"gpsins": _axis_dict(gps_pos[e])}
        sigmas = {"gpsins": _axis_dict(gps_est[e].sigma)}
        r_gpsins = (1.0 / (1.0 + hdop[e]), innovation[e])
        r_uwb = r_baro = (0.0, 0.0)
        if uwb_on[e]:
            estimates["uwb"] = _axis_dict(uwb_pos[e])
            sigmas["uwb"] = _axis_dict(uwb_sigma[e])
            r_uwb = (1.0 - float(nlos[e]), float(np.mean(uwb_sigma[e])))
        if baro_on[e]:
            estimates["baro"] = {"z": float(baro_alt[e])}
            sigmas["baro"] = {"z": float(baro_sigma[e])}
            r_baro = (1.0 / (1.0 + float(baro_spread[e])), float(baro_sigma[e]))
        frames.append(
            FusionFrame(
                t=t_k,
                windows={m: windows[m][e] for m in MODALITIES},
                reliability=ReliabilityScores(uwb=r_uwb, gpsins=r_gpsins, baro=r_baro),
                estimates=estimates,
                sigmas=sigmas,
                fallback=gps_est[e],
                truth_position=None if truth is None else truth[e],
            )
        )
    return tuple(frames)


def run_fusion(
    frames,
    encoders: dict,
    params: AttentionParams,
    ukf_state: UkfState | None = None,
    lam: float = 1.0,
):
    """Attend + fuse over the stacked frames in one kernel call, then UKF per epoch.

    Returns (pose estimates, fused observations), index-aligned with the
    frames; the observation slot is None on epochs that cannot fuse (an axis
    with no ready modality), whose pose is the GPS/INS fallback with inflated
    sigma. Modalities that drop out after the first fused epoch are
    renormalized away by the softmax and logged once each.
    """
    batch = stack_frames(frames, encoders)
    gamma, fused, variance, _ = attend(batch, encoders, params, lam)
    weighed = batch["ready"][:, None, :] & AXIS_MASK
    fusible = weighed.any(axis=2).all(axis=1)
    later = np.flatnonzero(fusible)[1:]
    for j, m in enumerate(MODALITIES):
        dropped = later[~batch["ready"][later, j]]
        if len(dropped):
            log.warning("modality %s unavailable at t=%.3f; fusing without it", m, frames[dropped[0]].t)
    # the UKF's measurement covariance must stay strictly positive
    measured = np.maximum(variance, SIGMA_MIN**2)
    state = ukf_state if ukf_state is not None else UkfState()
    estimates, observations = [], []
    for i, frame in enumerate(frames):
        if not fusible[i]:
            fb = frame.fallback
            sigma = tuple(s * WARMUP_SIGMA_INFLATION for s in fb.sigma)
            estimates.append(PoseEstimate(t=frame.t, position=fb.position, sigma=sigma, source="amfa"))
            observations.append(None)
            continue
        ratios = {
            s: {m: float(gamma[i, k, j]) for j, m in enumerate(MODALITIES) if weighed[i, k, j]}
            for k, s in enumerate(AXES)
        }
        dt = frame.t - frames[i - 1].t if i else 0.1
        state, est = ukf_step(state, FusedObservation(t=frame.t, position=fused[i], variance=measured[i]), dt)
        estimates.append(est)
        observations.append(FusedObservation(t=frame.t, position=fused[i], variance=variance[i], ratios=ratios))
    return tuple(estimates), tuple(observations)


def amfa_pipeline(
    scenario,
    uwb_model,
    baro_model,
    encoders: dict,
    params: AttentionParams,
    ukf_state: UkfState | None = None,
    L: int = DEFAULT_L,
    lam: float = 1.0,
) -> tuple[PoseEstimate, ...]:
    """Full application phase: frames -> attention fusion -> UKF trajectory.

    Emission starts at the first fused epoch; later non-fusible epochs (a
    modality dropping below window length mid-run) still yield the inflated
    fallback pose so the trajectory has no interior gaps.
    """
    frames = collect_fusion_frames(scenario, uwb_model, baro_model, L=L)
    poses, observations = run_fusion(frames, encoders, params, ukf_state, lam=lam)
    first = next((i for i, obs in enumerate(observations) if obs is not None), len(poses))
    return poses[first:]
