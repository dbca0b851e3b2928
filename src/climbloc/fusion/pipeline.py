"""Epoch-aligned fusion front-end and the full attention-fusion pipeline.

`collect_fusion_frames` builds one FrameBatch, the arrays of every fusion
epoch of a run, from three passes over whole streams. The EKF pass is the
only sequential loop, and it runs per stop, not per IMU sample: it
preintegrates the IMU steps between consecutive stops (each valid GPS fix,
then each epoch) in batches, then applies each segment and each fix in time
order and records the position, sigma, HDOP and innovation at every
epoch into arrays. The UWB and baro passes compute one estimate per
measurement (the classical solution until the FCNN window fills, then one
batched FCNN pass) and hold it at each epoch up to the next measurement. A
modality's estimate window is its last L epoch estimates, once L epochs have
it. Training and application consume the same batch, so the two phases see
identical inputs by construction.

`run_fusion` encodes and attends over the batch in one call
(`attention.encode`, `attention.attend`), then UKF-updates per epoch.
Epochs that cannot fuse (an axis with every estimate window still filling)
pass the GPS/INS solution through with inflated sigma; the application
pipeline additionally drops the leading run of those, so its trajectory
starts at the first fused epoch. Per-epoch objects (FusionFrame,
FusedObservation) exist only as views built when a batch or the
observations are indexed.
"""

from __future__ import annotations

import logging
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.geodesy import geodetic_to_enu
from ..core.types import Rotation, Vec3Enu
from ..errors import MissingInputError
from ..models import SIGMA_MIN, baro_fcnn_infer, uwb_fcnn_infer
from ..solvers.baro import baro_altitude
from ..solvers.ins import GpsInsEkf, InsState, preintegrate, rotation_increments
from ..solvers.types import PoseEstimate
from ..solvers.uwb import uwb_geometric_fixes
from .attention import (
    AXES,
    AXIS_MASK,
    AXIS_MODALITIES,
    MODALITIES,
    DEFAULT_L,
    DEFAULT_LAMBDA,
    N_RELIABILITY,
    AttentionParams,
    FusedObservation,
    ReliabilityScores,
    attend,
    encode,
)
from .ukf import UkfState, ukf_step

log = logging.getLogger("climbloc.fusion")

WARMUP_SIGMA_INFLATION = 3.0
_EPS = 1e-9
# IMU rows per preintegrated segment at most, and per preintegrate call (a multiple)
_PIECE = 128
_BATCH = 16 * _PIECE
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
    fallback: PoseEstimate | None
    truth_position: np.ndarray | None = None

    def ready(self) -> tuple:
        return tuple(
            m for m in MODALITIES if self.windows.get(m) is not None and m in self.estimates
        )

    def fusible(self) -> bool:
        ready = set(self.ready())
        return all(any(m in ready for m in AXIS_MODALITIES[s]) for s in AXES)


@dataclass(frozen=True, eq=False)
class FrameBatch(Sequence):
    """A run's n fusion epochs as arrays; `batch[i]` builds epoch i's FusionFrame.

    Every reliability feature must be finite and >= 0 (ValueError).
    """

    t: np.ndarray               # (n,) epoch times
    windows: dict               # modality -> (n, L*w) flattened estimate windows, 0 until ready
    present: np.ndarray         # (n, modality) bool: the modality has an estimate at the epoch
    ready: np.ndarray           # (n, modality) bool: ... and a full estimate window
    estimates: np.ndarray       # (n, modality, axis) meters, 0 where absent or the axis is unseen
    sigmas: np.ndarray          # (n, modality, axis) meters, likewise
    reliability: np.ndarray     # (n, modality, N_RELIABILITY), 0 where absent
    fallback: np.ndarray        # (n, axis) GPS/INS position; NaN where a frame had none
    fallback_sigma: np.ndarray  # (n, axis)
    truth: np.ndarray | None = None  # (n, axis), when the run has truth

    def __post_init__(self):
        bad = ~(np.isfinite(self.reliability) & (self.reliability >= 0)).all(axis=2)
        if bad.any():
            e, j = np.argwhere(bad)[0]
            r = tuple(self.reliability[e, j].tolist())
            raise ValueError(f"{MODALITIES[j]} reliability must be finite and >= 0, got {r}")

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> FusionFrame:
        e = range(len(self))[operator.index(i)]
        t, present = float(self.t[e]), [(j, m) for j, m in enumerate(MODALITIES) if self.present[e, j]]

        def axes(values, j):
            return {s: v for s, v, seen in zip(AXES, values.tolist(), AXIS_MASK[:, j]) if seen}

        fallback = None
        if not np.isnan(self.fallback_sigma[e]).any():
            fallback = PoseEstimate(t, Vec3Enu.from_array(self.fallback[e]), self.fallback_sigma[e], "gpsins-ekf")
        return FusionFrame(
            t=t,
            windows={m: self.windows[m][e].copy() if self.ready[e, j] else None for j, m in enumerate(MODALITIES)},
            reliability=ReliabilityScores(**dict(zip(MODALITIES, map(tuple, self.reliability[e].tolist())))),
            estimates={m: axes(self.estimates[e, j], j) for j, m in present},
            sigmas={m: axes(self.sigmas[e, j], j) for j, m in present},
            fallback=fallback,
            truth_position=None if self.truth is None else self.truth[e].copy(),
        )

    @property
    def fusible(self) -> np.ndarray:
        """(n,) bool: every axis has a ready modality it may weigh."""
        return (self.ready[:, None, :] & AXIS_MASK).any(axis=2).all(axis=1)

    def arrays(self) -> dict:
        """The rows as `attend` reads them: the windows, "ready", "reliability",
        "truth" when there is one, and "estimates" and "sigmas", 0 wherever
        the modality is not ready."""
        out = {**self.windows, "ready": self.ready, "reliability": self.reliability}
        for key in ("estimates", "sigmas"):
            out[key] = np.where(self.ready[..., None], getattr(self, key), 0.0)
        return out if self.truth is None else {**out, "truth": self.truth}


def stack_frames(frames, encoders: dict) -> FrameBatch:
    """Hand-built FusionFrames as one FrameBatch.

    A modality no frame has ready gets windows as wide as its encoder's
    input. A frame without a fallback leaves NaN in its fallback rows;
    truth is kept when every frame has one.
    """
    n, nan = len(frames), (np.nan,) * len(AXES)

    def table(value, *width, dtype=float):
        """(frame, modality, *width) array of value(frame, modality)."""
        values = [[value(f, m) for m in MODALITIES] for f in frames]
        return np.array(values, dtype=dtype).reshape(n, len(MODALITIES), *width)

    ready = table(lambda f, m: m in f.ready(), dtype=bool)
    windows = {}
    for j, m in enumerate(MODALITIES):
        rows = np.flatnonzero(ready[:, j]).tolist()
        windows[m] = np.zeros((n, np.size(frames[rows[0]].windows[m]) if rows else encoders[m].layer_sizes[0]))
        for i in rows:
            windows[m][i] = np.ravel(frames[i].windows[m])
    has_truth = all(f.truth_position is not None for f in frames)
    return FrameBatch(
        t=np.array([f.t for f in frames], dtype=float),
        windows=windows,
        present=table(lambda f, m: m in f.estimates, dtype=bool),
        ready=ready,
        estimates=table(lambda f, m: [f.estimates.get(m, {}).get(s, 0.0) for s in AXES], len(AXES)),
        sigmas=table(lambda f, m: [f.sigmas.get(m, {}).get(s, 0.0) for s in AXES], len(AXES)),
        reliability=table(lambda f, m: getattr(f.reliability, m), N_RELIABILITY),
        fallback=np.array([f.fallback.position.as_array() if f.fallback else nan for f in frames]).reshape(n, 3),
        fallback_sigma=np.array([f.fallback.sigma if f.fallback else nan for f in frames]).reshape(n, 3),
        truth=np.array([f.truth_position for f in frames], dtype=float).reshape(n, 3) if has_truth else None,
    )


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


def _stop_schedule(step_ends: np.ndarray, gps, t: np.ndarray):
    """(stops, ends): the GPS/INS pass's stops in time order, fix j as j and
    epoch e as -1 - e, each epoch after its valid fixes (those up to it
    within _EPS); a stop propagates every IMU step ending by it within _EPS,
    so ends[k] is one past its last step (`step_ends` ascend)."""
    fix_epoch = np.searchsorted(t + _EPS, gps.t, side="left")
    fixes = np.flatnonzero(gps.valid & (fix_epoch < len(t)))
    # a fix's place: the fixes and epochs before it; an epoch's: likewise
    at_fix = np.arange(len(fixes)) + fix_epoch[fixes]
    at_epoch = np.arange(len(t)) + np.searchsorted(fix_epoch[fixes], np.arange(len(t)), side="right")
    stops, until = np.empty(len(fixes) + len(t), dtype=np.intp), np.empty(len(fixes) + len(t))
    stops[at_fix], until[at_fix] = fixes, gps.t[fixes]
    stops[at_epoch], until[at_epoch] = -1 - np.arange(len(t)), t
    return stops, np.maximum.accumulate(np.searchsorted(step_ends, until + _EPS, side="right"))


def ekf_pass(scenario, epochs):
    """GPS/INS filter over the epochs: (positions, sigmas, last HDOP, last innovation).

    Positions and sigmas are (epoch, axis) arrays, HDOP and innovation one
    value per epoch. Each valid GPS fix up to an epoch is applied after
    propagating the IMU to the fix time; the filter is then propagated to
    the epoch itself. The IMU steps that end by such a stop, and after the
    previous one, are preintegrated as one segment (as several when they
    are more than _PIECE).
    """
    imu, gps = scenario.imu, scenario.gps
    if len(imu) < 2:
        raise MissingInputError("fusion needs an IMU stream with at least two samples")
    t = np.asarray(epochs, dtype=float)
    gaps = np.diff(imu.t)
    gaps = np.append(gaps, gaps[-1])
    stops, ends = _stop_schedule(imu.t + gaps, gps, t)
    n = ends.max(initial=0)
    # the segments start where a stop's steps do and at every _PIECE-th row,
    # so a long gap between stops costs neither working memory nor passes
    cut = np.zeros(n, dtype=bool)
    cut[ends[ends < n]] = cut[::_PIECE] = True
    firsts = np.flatnonzero(cut)
    pieces = np.diff(np.searchsorted(firsts, ends), prepend=0)
    ekf = GpsInsEkf(_INITIAL_STATE)

    def segments():
        for a in range(0, n, _BATCH):
            rows = slice(a, min(a + _BATCH, n))
            increments = rotation_increments(imu.angular_rate[rows], gaps[rows])
            inner = firsts[(firsts >= a) & (firsts < a + _BATCH)] - a
            yield from preintegrate(imu.specific_force[rows], increments, gaps[rows], inner, ekf.model)

    pending = segments()
    enu, fix_hdop = geodetic_to_enu(gps, scenario.origin).tolist(), gps.hdop.tolist()
    positions, diag_p = np.zeros((2, len(t), 3))
    hdop, innovation = np.zeros((2, len(t)))
    for stop, count in zip(stops.tolist(), pieces.tolist()):
        for _ in range(count):
            ekf.apply(next(pending))
        if stop >= 0:
            ekf.update(Vec3Enu(*enu[stop]), fix_hdop[stop])
            continue
        e = -1 - stop
        ekf.check_attitude(epochs[e])
        positions[e], diag_p[e] = ekf.position, np.diagonal(ekf.model.P)[:3]
        hdop[e], innovation[e] = ekf.last_hdop, ekf.last_innovation
    sigmas = np.sqrt(np.maximum(diag_p, 0.0))
    if not (np.isfinite(positions).all() and np.isfinite(sigmas).all()):
        raise ValueError("GPS/INS positions and sigmas must be finite")
    return positions, sigmas, hdop, innovation


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


def _estimate_windows(values: np.ndarray, present: np.ndarray, L: int):
    """(windows, ready): per epoch, the last L epoch estimates flattened, once
    L epochs have the modality (0 before), and whether they have.

    `present` turns on at the modality's first epoch and stays on.
    """
    values = values.reshape(len(present), -1)
    first = _first(present)
    ready = np.arange(len(present)) >= first + L - 1
    windows = np.zeros((len(present), L * values.shape[1]))
    if ready.any():
        runs = sliding_window_view(values[first:], L, axis=0).transpose(0, 2, 1)
        windows[ready] = runs.reshape(len(runs), -1)
    return windows, ready


def collect_fusion_frames(scenario, uwb_model=None, baro_model=None, L: int = DEFAULT_L) -> FrameBatch:
    """Every fusion epoch of a run as one FrameBatch, from the EKF, UWB and baro passes."""
    epochs = epoch_times(scenario)
    t = np.asarray(epochs, dtype=float)
    gps_pos, gps_sigma, hdop, innovation = ekf_pass(scenario, epochs)
    uwb_latest, baro_latest = _latest(scenario.uwb, t), _latest(scenario.baro, t)
    uwb_pos, uwb_sigma, nlos = _uwb_pass(scenario, uwb_model, uwb_latest)
    baro_alt, baro_sigma = _baro_pass(scenario, baro_model, baro_latest, L)
    present = np.column_stack([uwb_latest >= 0, np.ones(len(t), dtype=bool), baro_latest >= 0])
    baro_spread = _recent_spread(baro_alt, _first(present[:, 2]), L)

    def on_z(values):  # the barometer sees z alone
        return np.column_stack([np.zeros((len(t), 2)), values])

    # (epoch, modality, ...) in MODALITIES order; what a stream holds before
    # its first sample (NaN) becomes 0
    estimates = np.stack([uwb_pos, gps_pos, on_z(baro_alt)], axis=1)
    sigmas = np.stack([uwb_sigma, gps_sigma, on_z(baro_sigma)], axis=1)
    reliability = np.stack(
        [
            np.column_stack([1.0 - nlos, np.mean(uwb_sigma, axis=1)]),
            np.column_stack([1.0 / (1.0 + hdop), innovation]),
            np.column_stack([1.0 / (1.0 + baro_spread), baro_sigma]),
        ],
        axis=1,
    )
    for values in (estimates, sigmas, reliability):
        values[~present] = 0.0
    windows, ready = {}, np.zeros_like(present)
    for j, (m, values) in enumerate(zip(MODALITIES, (uwb_pos, gps_pos, baro_alt))):
        windows[m], ready[:, j] = _estimate_windows(values, present[:, j], L)
    truth = scenario.truth.position_at(epochs) if len(scenario.truth) else None
    return FrameBatch(t, windows, present, ready, estimates, sigmas, reliability, gps_pos, gps_sigma, truth)


class FusedObservations(Sequence):
    """The fused observation of each epoch of a run, built on demand from
    the attention arrays; None on epochs that cannot fuse."""

    def __init__(self, batch: FrameBatch, gamma, fused, variance):
        self.t, self.ready, self.fusible = batch.t, batch.ready, batch.fusible
        self.gamma, self.fused, self.variance = gamma, fused, variance

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> FusedObservation | None:
        e = range(len(self))[operator.index(i)]
        if not self.fusible[e]:
            return None
        weighed = self.ready[e] & AXIS_MASK
        ratios = {
            s: {m: float(self.gamma[e, k, j]) for j, m in enumerate(MODALITIES) if weighed[k, j]}
            for k, s in enumerate(AXES)
        }
        return FusedObservation(t=float(self.t[e]), position=self.fused[e], variance=self.variance[e], ratios=ratios)


def run_fusion(
    batch: FrameBatch,
    encoders: dict,
    params: AttentionParams,
    ukf_state: UkfState | None = None,
    lam: float = DEFAULT_LAMBDA,
):
    """Attend + fuse over the whole batch in one kernel call, then UKF per epoch.

    Returns (track, observations). `track` is (t, positions, sigmas): the
    epoch times and (epoch, axis) arrays. `observations` is index-aligned
    with the batch and holds None on epochs that cannot fuse (an axis with
    no ready modality), whose position is the GPS/INS fallback with
    inflated sigma. A modality that drops out after a fused epoch that had
    it is renormalized away by the softmax and logged once.
    """
    arrays = batch.arrays()
    gamma, fused, variance, _ = attend(arrays, encode(arrays, encoders), params, lam)
    fused_rows = np.flatnonzero(batch.fusible)
    for j, m in enumerate(MODALITIES):
        # a fused epoch without the modality after one with it
        ready = batch.ready[fused_rows, j]
        dropped = fused_rows[1:][np.logical_or.accumulate(ready)[:-1] & ~ready[1:]]
        if len(dropped):
            log.warning("modality %s unavailable at t=%.3f; fusing without it", m, batch.t[dropped[0]])
    # the UKF's measurement covariance must stay strictly positive
    measured = np.maximum(variance, SIGMA_MIN**2)
    state = ukf_state if ukf_state is not None else UkfState()
    positions, sigmas = batch.fallback.copy(), batch.fallback_sigma * WARMUP_SIGMA_INFLATION
    t = batch.t.tolist()
    for i in fused_rows.tolist():
        dt = t[i] - t[i - 1] if i else 0.1
        state, sigmas[i] = ukf_step(state, SimpleNamespace(position=fused[i], variance=measured[i]), dt)
        positions[i] = state.mean[:3]
    return (batch.t, positions, sigmas), FusedObservations(batch, gamma, fused, variance)


def amfa_pipeline(
    scenario,
    uwb_model,
    baro_model,
    encoders: dict,
    params: AttentionParams,
    ukf_state: UkfState | None = None,
    L: int = DEFAULT_L,
    lam: float = DEFAULT_LAMBDA,
):
    """Full application phase: frames -> attention fusion -> UKF trajectory.

    Returns (t, positions, sigmas) arrays. Emission starts at the first
    fused epoch; later non-fusible epochs (a modality dropping below window
    length mid-run) still yield the inflated fallback so the trajectory has
    no interior gaps.
    """
    batch = collect_fusion_frames(scenario, uwb_model, baro_model, L=L)
    track, _ = run_fusion(batch, encoders, params, ukf_state, lam=lam)
    first = _first(batch.fusible)
    return tuple(values[first:] for values in track)
