import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climbloc.errors import NumericalFailureError
from climbloc.fusion import (
    AXES,
    AttentionParams,
    FusedObservation,
    FusionFrame,
    ReliabilityScores,
    UkfState,
    amfa_pipeline,
    attend,
    collect_fusion_frames,
    fuse,
    fusion_from_dict,
    fusion_loss,
    fusion_loss_and_grads,
    fusion_ratios,
    fusion_to_dict,
    init_attention_params,
    init_encoders,
    merwe_weights,
    run_fusion,
    train_fusion,
    ukf_step,
)
from climbloc.fusion import attention
from climbloc.fusion.attention import AXIS_MODALITIES, MODALITIES
from climbloc.fusion.pipeline import WARMUP_SIGMA_INFLATION, _recent_spread, stack_frames
from climbloc.fusion.train import _mean_loss, _rows
from climbloc.fusion.ukf import _robust_cholesky
from climbloc.models import SIGMA_MIN
from climbloc.nnet import TrainConfig, fit_standardization, net_forward, net_from_dict, net_to_dict
from climbloc.sim import (
    BaroNoise,
    GpsNoise,
    ImuNoise,
    ScenarioConfig,
    TrajectoryProfile,
    UwbNoise,
    simulate_scenario,
)
from test_nnet import per_array_sgd


def quiet_scenario(duration=14.0, seed=3, **overrides):
    cfg = ScenarioConfig(
        duration=duration,
        profile=TrajectoryProfile(pauses=()),
        imu=ImuNoise(accel_sigma=0.0, gyro_sigma=0.0, accel_bias=(0, 0, 0), gyro_bias=(0, 0, 0)),
        gps=GpsNoise(sigma_xy=0.0, sigma_z=0.0, occlusions=()),
        uwb=UwbNoise(range_sigma=0.0, angle_sigma=0.0, nlos_windows=()),
        baro=BaroNoise(pressure_sigma=0.0, drift_rate=0.0),
        seed=seed,
        **overrides,
    )
    return simulate_scenario(cfg)


def unit_reliability():
    return ReliabilityScores(uwb=(1.0, 0.1), gpsins=(0.5, 0.2), baro=(0.9, 0.3))


# Independent per-frame reference for the batched attention kernel: the same
# algebra written one frame, one axis and one modality at a time.


def encode(encoders, windows):
    """Embed each modality's flattened estimate window; None windows pass through."""
    return {m: None if w is None else net_forward(encoders[m], np.ravel(w)) for m, w in windows.items()}


def attention_logits(params, embeddings, reliability):
    """Per-axis logits over that axis's available modalities.

    The query concatenates all three embeddings; a missing modality
    contributes a zero block and is left out of its axes' logits.
    """
    d_e = params.w_k.shape[1]
    zc = np.concatenate(
        [embeddings[m] if embeddings.get(m) is not None else np.zeros(d_e) for m in MODALITIES]
    )
    scale = 1.0 / math.sqrt(params.d_k)
    keys = {m: params.w_k @ z for m, z in embeddings.items() if z is not None}
    logits = {}
    for s in AXES:
        q = params.w_q[s] @ zc
        logits[s] = {
            m: float(
                q @ keys[m] * scale
                + params.beta[s] * float(params.w_r[s] @ np.asarray(getattr(reliability, m)))
                + params.b_prior[(m, s)]
            )
            for m in AXIS_MODALITIES[s]
            if m in keys
        }
    return logits


def reference_ratios(logits):
    """Max-stabilized softmax per axis over the named modalities."""
    ratios = {}
    for s, axis in logits.items():
        raw = np.array(list(axis.values()))
        shifted = np.exp(raw - raw.max()) if len(raw) else raw
        ratios[s] = dict(zip(axis, (shifted / shifted.sum()).tolist()))
    return ratios


def reference_ratios_of(frame, encoders, params):
    ready = set(frame.ready())
    embeddings = encode(encoders, {m: frame.windows[m] if m in ready else None for m in MODALITIES})
    return reference_ratios(attention_logits(params, embeddings, frame.reliability))


def kernel_frame(windows, reliability=None):
    """A frame whose modalities are ready wherever a window is given, every estimate 0."""
    estimates = {
        m: {s: 0.0 for s in AXES if m in AXIS_MODALITIES[s]} for m, w in windows.items() if w is not None
    }
    return FusionFrame(
        t=0.0,
        windows=windows,
        reliability=reliability or unit_reliability(),
        estimates=estimates,
        sigmas={m: {s: 1.0 for s in axes} for m, axes in estimates.items()},
        fallback=None,
    )


def kernel(frames, encoders, params, lam=1.0):
    """encode and attend over the stacked frames: (ratios, fused, variance, cache)."""
    batch = stack_frames(frames, encoders).arrays()
    return attend(batch, attention.encode(batch, encoders), params, lam)


class TestFusionRatios:
    def test_equal_logits_split_evenly(self):
        ratios = fusion_ratios({"z": {"uwb": 0.0, "gpsins": 0.0, "baro": 0.0}})
        for g in ratios["z"].values():
            assert g == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_log_two_advantage_doubles_weight(self):
        ratios = fusion_ratios({"z": {"uwb": math.log(2.0), "gpsins": 0.0, "baro": 0.0}})
        assert ratios["z"]["uwb"] == pytest.approx(0.5, abs=1e-12)
        assert ratios["z"]["gpsins"] == pytest.approx(0.25, abs=1e-12)
        assert ratios["z"]["baro"] == pytest.approx(0.25, abs=1e-12)

    @given(
        st.tuples(
            st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30), st.floats(-50, 50)
        )
    )
    def test_shift_invariance(self, vals):
        a, b, c, shift = vals
        base = fusion_ratios({"z": {"uwb": a, "gpsins": b, "baro": c}})
        moved = fusion_ratios({"z": {"uwb": a + shift, "gpsins": b + shift, "baro": c + shift}})
        for m in base["z"]:
            assert moved["z"][m] == pytest.approx(base["z"][m], abs=1e-12)

    def test_single_modality_gets_everything(self):
        assert fusion_ratios({"x": {"gpsins": -4.2}})["x"] == {"gpsins": 1.0}


class TestFuse:
    def test_single_modality_passthrough(self):
        obs = fuse(
            ratios={"x": {"uwb": 1.0}, "y": {"uwb": 1.0}, "z": {"uwb": 1.0}},
            estimates={"uwb": {"x": 1.0, "y": 2.0, "z": 3.0}},
            sigmas={"uwb": {"x": 0.5, "y": 0.5, "z": 0.25}},
        )
        assert obs.position == pytest.approx([1.0, 2.0, 3.0])
        assert obs.variance == pytest.approx([0.25, 0.25, 0.0625])

    def test_divergence_term_hand_value(self):
        # equal weights, estimates 0 and 2, zero intrinsic sigma, lam 1
        obs = fuse(
            ratios={"x": {"uwb": 0.5, "gpsins": 0.5}, "y": {"uwb": 1.0}, "z": {"uwb": 1.0}},
            estimates={"uwb": {"x": 0.0, "y": 0.0, "z": 0.0}, "gpsins": {"x": 2.0}},
            sigmas={"uwb": {"x": 0.0, "y": 1.0, "z": 1.0}, "gpsins": {"x": 0.0}},
            lam=1.0,
        )
        assert obs.position[0] == pytest.approx(1.0, abs=1e-12)
        assert obs.variance[0] == pytest.approx(1.0, abs=1e-12)

    def test_convex_mean(self):
        obs = fuse(
            ratios={"x": {"uwb": 0.5, "gpsins": 0.5}, "y": {"uwb": 1.0}, "z": {"uwb": 1.0}},
            estimates={"uwb": {"x": 2.0, "y": 0.0, "z": 0.0}, "gpsins": {"x": 4.0}},
            sigmas={"uwb": {"x": 0.1, "y": 0.1, "z": 0.1}, "gpsins": {"x": 0.1}},
        )
        assert obs.position[0] == pytest.approx(3.0, abs=1e-12)

    @given(
        st.floats(0.01, 0.99),
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(0.01, 5.0),
        st.floats(0.01, 5.0),
        st.floats(0.0, 3.0),
    )
    def test_fused_in_hull_and_variance_at_least_intrinsic(self, w, a, b, s1, s2, lam):
        ratios = {"x": {"uwb": w, "gpsins": 1.0 - w}, "y": {"uwb": 1.0}, "z": {"uwb": 1.0}}
        obs = fuse(
            ratios,
            estimates={"uwb": {"x": a, "y": 0.0, "z": 0.0}, "gpsins": {"x": b}},
            sigmas={"uwb": {"x": s1, "y": 1.0, "z": 1.0}, "gpsins": {"x": s2}},
            lam=lam,
        )
        lo, hi = min(a, b), max(a, b)
        assert lo - 1e-9 <= obs.position[0] <= hi + 1e-9
        intrinsic = w * s1**2 + (1 - w) * s2**2
        assert obs.variance[0] >= intrinsic - 1e-12
        if a == b:
            assert obs.variance[0] == pytest.approx(intrinsic, abs=1e-12)

    def test_rejects_axis_without_modalities(self):
        with pytest.raises(ValueError, match="axis"):
            fuse(
                ratios={"x": {"uwb": 1.0}, "y": {}, "z": {"uwb": 1.0}},
                estimates={"uwb": {"x": 0.0, "y": 0.0, "z": 0.0}},
                sigmas={"uwb": {"x": 1.0, "y": 1.0, "z": 1.0}},
            )


def random_windows(seed=0, L=4):
    rng = np.random.default_rng(seed)
    return {"uwb": rng.normal(size=3 * L), "gpsins": rng.normal(size=3 * L), "baro": rng.normal(size=L)}


UWB, GPSINS, BARO = (MODALITIES.index(m) for m in ("uwb", "gpsins", "baro"))


class TestAttentionLogits:
    def zero_params(self, d_e=8, d_k=4):
        return AttentionParams(
            w_q={s: np.zeros((d_k, 3 * d_e)) for s in AXES},
            w_k=np.zeros((d_k, d_e)),
            beta={s: 0.0 for s in AXES},
            w_r={s: np.zeros(2) for s in AXES},
            b_prior={},
            d_k=d_k,
        )

    def encoders(self):
        return init_encoders(L=4, d_e=8, hidden=16, seed=0)

    def test_zero_parameters_zero_logits(self):
        gamma, _, _, _ = kernel([kernel_frame(random_windows())], self.encoders(), self.zero_params())
        # zero logits: every modality an axis may weigh gets an equal share
        np.testing.assert_array_equal(gamma[0, 0], [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(gamma[0, 1], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(gamma[0, 2], [1.0 / 3.0] * 3, rtol=0, atol=1e-15)

    def test_prior_bias_is_additive(self):
        params = self.zero_params()
        params.b_prior[("baro", "z")] = math.log(2.0)
        gamma, _, _, _ = kernel([kernel_frame(random_windows())], self.encoders(), params)
        assert gamma[0, 2, BARO] / gamma[0, 2, UWB] == pytest.approx(2.0, rel=1e-12)
        assert gamma[0, 2, BARO] == pytest.approx(0.5, abs=1e-12)

    def test_reliability_raises_logit_monotonically(self):
        params = self.zero_params()
        params.beta["z"] = 1.0
        params.w_r["z"] = np.array([1.0, 0.0])
        windows = random_windows()
        frames = [
            kernel_frame(windows, ReliabilityScores(uwb=(r, 0.1), gpsins=(0.5, 0.2), baro=(0.9, 0.3)))
            for r in (0.2, 0.5, 0.8)
        ]
        gamma, _, _, _ = kernel(frames, self.encoders(), params)
        assert gamma[0, 2, UWB] < gamma[1, 2, UWB] < gamma[2, 2, UWB]
        # the read-out belongs to z alone
        np.testing.assert_array_equal(gamma[:, 0], [[0.5, 0.5, 0.0]] * 3)

    def test_missing_modality_drops_out_of_softmax(self):
        windows = random_windows()
        windows["uwb"] = None
        gamma, _, _, _ = kernel([kernel_frame(windows)], self.encoders(), self.zero_params())
        assert gamma[0, 0].tolist() == [0.0, 1.0, 0.0]
        assert gamma[0, 2, UWB] == 0.0
        assert gamma[0, 2].sum() == pytest.approx(1.0, abs=1e-12)


class TestEncode:
    def test_zeroed_encoders_give_zero_embeddings(self):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=0)
        for net in encoders.values():
            for w in net.weights:
                w *= 0.0
        windows = {"uwb": np.ones(12), "gpsins": np.ones(12), "baro": np.ones(4)}
        _, _, _, cache = kernel([kernel_frame(windows)], encoders, init_attention_params(d_e=8, d_k=4))
        assert np.all(cache["z"] == 0.0)

    def test_constant_windows_encode_identically(self):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=1)
        frame = kernel_frame({"uwb": np.full(12, 2.5), "gpsins": None, "baro": None})
        _, _, _, cache = kernel([frame, frame], encoders, init_attention_params(d_e=8, d_k=4))
        assert np.array_equal(cache["z"][0], cache["z"][1])
        # a modality that is not ready embeds as zeros
        assert np.all(cache["z"][:, GPSINS] == 0.0)

    def test_embedding_responds_to_window_changes(self):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=2)
        base = np.linspace(0.0, 1.0, 12)
        bumped = base.copy()
        bumped[5] += 0.1
        frames = [kernel_frame({"uwb": w, "gpsins": None, "baro": None}) for w in (base, bumped)]
        _, _, _, cache = kernel(frames, encoders, init_attention_params(d_e=8, d_k=4))
        assert not np.allclose(cache["z"][0, UWB], cache["z"][1, UWB])

    def test_wrong_window_length_rejected(self):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=0)
        frame = kernel_frame({"uwb": np.ones(11), "gpsins": None, "baro": None})
        with pytest.raises(ValueError, match="uwb window length"):
            kernel([frame], encoders, init_attention_params(d_e=8, d_k=4))


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_bad_reliability_feature_rejected_by_the_batch(self, bad):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=0)
        good = kernel_frame(random_windows())
        frame = kernel_frame(random_windows(), ReliabilityScores(uwb=(1.0, 0.1), gpsins=(0.5, bad), baro=(0.9, 0.3)))
        with pytest.raises(ValueError, match=r"gpsins reliability must be finite and >= 0, got \(0\.5, "):
            stack_frames([good, frame], encoders)


class TestUkf:
    def test_mean_weights_sum_to_one(self):
        # exact identity in real arithmetic; in float64 the achievable
        # absolute error scales with the weight magnitude (|w0| ~ 1e6 at
        # alpha = 1e-3), so the tolerance is relative to that scale
        wm, wc = merwe_weights(6, 1e-3, 2.0, 0.0)
        assert abs(wm.sum() - 1.0) <= 1e-12 * max(1.0, float(np.abs(wm).max()))
        assert len(wm) == len(wc) == 13

    def test_mean_weights_sum_exactly_for_moderate_alpha(self):
        wm, _ = merwe_weights(6, 1.0, 2.0, 3.0)
        assert wm.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_innovation_keeps_mean_and_contracts(self):
        state = UkfState()
        # measurement placed exactly at the predicted position (zero motion)
        obs = FusedObservation(t=0.1, position=np.zeros(3), variance=np.full(3, 0.5))
        new, est = ukf_step(state, obs, dt=0.1)
        assert np.allclose(new.mean, 0.0, atol=1e-9)
        assert np.trace(new.cov) < np.trace(state.cov)
        assert est.source == "amfa"
        assert all(s > 0 for s in est.sigma)

    def test_matches_linear_kalman_filter(self):
        rng = np.random.default_rng(11)
        dt, q = 0.1, 0.05
        f = np.eye(6)
        f[0:3, 3:6] = dt * np.eye(3)
        qn = np.zeros((6, 6))
        qn[0:3, 0:3] = q * dt**3 / 3 * np.eye(3)
        qn[0:3, 3:6] = qn[3:6, 0:3] = q * dt**2 / 2 * np.eye(3)
        qn[3:6, 3:6] = q * dt * np.eye(3)
        h = np.hstack([np.eye(3), np.zeros((3, 3))])

        state = UkfState(q=q)
        kf_mean, kf_cov = state.mean.copy(), state.cov.copy()
        for k in range(400):
            z = rng.normal(scale=2.0, size=3) + [0.1 * k, 0.0, 0.05 * k]
            var = rng.uniform(0.25, 4.0, size=3)

            kf_mean = f @ kf_mean
            kf_cov = f @ kf_cov @ f.T + qn
            s = h @ kf_cov @ h.T + np.diag(var)
            gain = kf_cov @ h.T @ np.linalg.inv(s)
            kf_mean = kf_mean + gain @ (z - h @ kf_mean)
            kf_cov = kf_cov - gain @ s @ gain.T

            state, _ = ukf_step(
                state, FusedObservation(t=(k + 1) * dt, position=z, variance=var), dt
            )
            np.testing.assert_allclose(state.mean, kf_mean, atol=1e-9)
            np.testing.assert_allclose(state.cov, kf_cov, atol=1e-9)

    def test_slightly_indefinite_covariance_survives_by_jitter(self):
        cov = np.diag([4.0, 4.0, 4.0, 1.0, 1.0, -1e-14])
        state = UkfState(cov=cov)
        obs = FusedObservation(t=0.1, position=np.zeros(3), variance=np.ones(3))
        new, _ = ukf_step(state, obs, dt=0.1)
        assert np.all(np.isfinite(new.cov))

    def test_hopeless_covariance_aborts_with_diagnostics(self):
        with pytest.raises(NumericalFailureError, match="eigenvalues"):
            _robust_cholesky(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_bad_inputs(self):
        obs = FusedObservation(t=0.1, position=np.zeros(3), variance=np.ones(3))
        with pytest.raises(ValueError, match="dt"):
            ukf_step(UkfState(), obs, dt=0.0)
        zero_var = FusedObservation(t=0.1, position=np.zeros(3), variance=np.zeros(3))
        with pytest.raises(ValueError, match="variance"):
            ukf_step(UkfState(), zero_var, dt=0.1)


def toy_frames(n=80, L=4, seed=0, good="uwb"):
    """Frames where one modality tracks truth and the others are corrupted."""
    rng = np.random.default_rng(seed)
    series = {m: [] for m in ("uwb", "gpsins", "baro")}
    frames = []
    for k in range(n):
        t = 0.1 * (k + 1)
        truth = np.array([math.sin(0.3 * t), math.cos(0.4 * t), 0.5 + 0.2 * t])
        est = {
            "uwb": truth.copy(),
            "gpsins": truth + rng.normal(0.0, 1.5, 3) + 2.0,
            "baro": truth[2] + 3.0 + rng.normal(0.0, 0.8),
        }
        if good != "uwb":
            est["uwb"], est[good] = est[good], est["uwb"]
        series["uwb"].append(est["uwb"])
        series["gpsins"].append(est["gpsins"])
        series["baro"].append(est["baro"])
        if k + 1 < L:
            continue
        windows = {
            "uwb": np.asarray(series["uwb"][-L:]).ravel(),
            "gpsins": np.asarray(series["gpsins"][-L:]).ravel(),
            "baro": np.asarray(series["baro"][-L:], dtype=float).ravel(),
        }
        frames.append(
            FusionFrame(
                t=t,
                windows=windows,
                reliability=ReliabilityScores(
                    uwb=(0.95, 0.05), gpsins=(0.4, 2.0), baro=(0.3, 1.5)
                ),
                estimates={
                    "uwb": {"x": est["uwb"][0], "y": est["uwb"][1], "z": est["uwb"][2]},
                    "gpsins": {
                        "x": est["gpsins"][0],
                        "y": est["gpsins"][1],
                        "z": est["gpsins"][2],
                    },
                    "baro": {"z": float(est["baro"])},
                },
                sigmas={
                    "uwb": {"x": 0.05, "y": 0.05, "z": 0.05},
                    "gpsins": {"x": 1.5, "y": 1.5, "z": 1.5},
                    "baro": {"z": 0.8},
                },
                fallback=None,
                truth_position=truth,
            )
        )
    return frames


def toy_batch(frames):
    """Toy frames as the FrameBatch the trainer reads."""
    return stack_frames(frames, init_encoders(L=4, d_e=8, hidden=16))


def _parameter_slots(encoders, params, grads, rng, per_group=3):
    """Sample (description, get, set, analytic) probes across every group."""
    slots = []

    def add_array(arr, grad_arr, label):
        for _ in range(per_group):
            i = int(rng.integers(arr.size))
            slots.append(
                (
                    f"{label}[{i}]",
                    lambda a=arr, i=i: float(a.flat[i]),
                    lambda v, a=arr, i=i: a.flat.__setitem__(i, v),
                    float(grad_arr.flat[i]),
                )
            )

    for s in AXES:
        add_array(params.w_q[s], grads["w_q"][s], f"w_q[{s}]")
        add_array(params.w_r[s], grads["w_r"][s], f"w_r[{s}]")
        slots.append(
            (
                f"beta[{s}]",
                lambda s=s: params.beta[s],
                lambda v, s=s: params.beta.__setitem__(s, v),
                grads["beta"][s],
            )
        )
    add_array(params.w_k, grads["w_k"], "w_k")
    for key in params.b_prior:
        slots.append(
            (
                f"b_prior[{key}]",
                lambda k=key: params.b_prior[k],
                lambda v, k=key: params.b_prior.__setitem__(k, v),
                grads["b_prior"][key],
            )
        )
    for m, net in encoders.items():
        for layer in range(len(net.weights)):
            add_array(net.weights[layer], grads["enc_w"][m][layer], f"enc[{m}].w{layer}")
            add_array(net.biases[layer], grads["enc_b"][m][layer], f"enc[{m}].b{layer}")
    return slots


def check_fusion_gradients(seed, frames=None, per_group=3):
    rng = np.random.default_rng(seed)
    if frames is None:
        frames = toy_frames(n=12, L=4, seed=seed)
    frame = frames[int(rng.integers(len(frames)))]
    encoders = init_encoders(L=4, d_e=8, hidden=16, seed=seed)
    params = init_attention_params(d_e=8, d_k=4, seed=seed + 1)
    # random non-zero gates so every term participates
    for s in AXES:
        params.beta[s] = float(rng.normal(1.0, 0.3))
        params.w_r[s] = rng.normal(0.0, 0.5, 2)

    loss0, grads = fusion_loss_and_grads(frame, encoders, params)
    # relative 1e-4 with an absolute floor at the finite-difference noise:
    # the loss itself rounds at ~eps_machine * |loss|, so fd cannot resolve
    # derivative components below roughly that divided by the probe step
    atol = 1e-7 * max(1.0, abs(loss0))
    worst = 0.0
    for label, get, put, analytic in _parameter_slots(encoders, params, grads, rng, per_group):
        v0 = get()
        eps = 1e-6 * max(1.0, abs(v0))
        put(v0 + eps)
        up = fusion_loss(frame, encoders, params)
        put(v0 - eps)
        down = fusion_loss(frame, encoders, params)
        put(v0)
        fd = (up - down) / (2.0 * eps)
        err = abs(analytic - fd)
        rel = err / max(abs(analytic), abs(fd), 1e-8)
        if err > atol:
            worst = max(worst, rel)
            assert rel < 1e-4, f"{label}: analytic {analytic} vs fd {fd} (rel {rel})"
    return worst


def reference_encoder_grads(net, window, d_out):
    """Weight and bias gradients of one encoder at one window, one layer at a time."""
    acts = [(np.asarray(window, dtype=float) - net.input_mean) / net.input_std]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = w @ acts[-1] + b
        acts.append(pre if i == len(net.weights) - 1 else np.maximum(pre, 0.0))
    g_w, g_b = [], []
    for i in reversed(range(len(net.weights))):
        g_w.insert(0, np.outer(d_out, acts[i]))
        g_b.insert(0, d_out)
        # acts[i] is the ReLU output below layer i (the last pass, at i = 0, is unused)
        d_out = (net.weights[i].T @ d_out) * (acts[i] > 0.0)
    return g_w, g_b


def reference_loss_and_grads(frame, encoders, params, weights=(1.0, 1.0, 2.0)):
    """Per-frame loss and gradients, written term by term from the application path.

    Forward: `encode` -> `attention_logits` -> `reference_ratios` -> convex
    sum per axis. Backward: squared error -> convex combination -> softmax ->
    logits -> encoders, one modality and one axis at a time.
    """
    ready = set(frame.ready())
    embeddings = encode(encoders, {m: frame.windows[m] if m in ready else None for m in MODALITIES})
    ratios = reference_ratios(attention_logits(params, embeddings, frame.reliability))
    grads = {
        "w_q": {s: np.zeros_like(params.w_q[s]) for s in AXES},
        "w_k": np.zeros_like(params.w_k),
        "beta": {s: 0.0 for s in AXES},
        "w_r": {s: np.zeros_like(params.w_r[s]) for s in AXES},
        "b_prior": {key: 0.0 for key in params.b_prior},
        "enc_w": {m: [np.zeros_like(w) for w in encoders[m].weights] for m in encoders},
        "enc_b": {m: [np.zeros_like(b) for b in encoders[m].biases] for m in encoders},
    }
    present = [m for m in MODALITIES if embeddings.get(m) is not None]
    d_e = params.w_k.shape[1]
    zc = np.concatenate(
        [embeddings[m] if embeddings.get(m) is not None else np.zeros(d_e) for m in MODALITIES]
    )
    keys = {m: params.w_k @ embeddings[m] for m in present}
    scale = 1.0 / math.sqrt(params.d_k)

    loss = 0.0
    d_zc = np.zeros_like(zc)
    d_keys = {m: np.zeros(params.d_k) for m in present}
    for i, (s, w_s) in enumerate(zip(AXES, weights)):
        mods = [m for m in AXIS_MODALITIES[s] if m in ratios[s]]
        if not mods:
            continue
        gamma = np.array([ratios[s][m] for m in mods])
        x_hat = np.array([frame.estimates[m][s] for m in mods])
        err = float(gamma @ x_hat) - frame.truth_position[i]
        loss += w_s * err * err

        d_gamma = 2.0 * w_s * err * x_hat
        d_logit = gamma * (d_gamma - float(gamma @ d_gamma))

        q = params.w_q[s] @ zc
        d_q = np.zeros(params.d_k)
        for j, m in enumerate(mods):
            rel = np.asarray(getattr(frame.reliability, m))
            d_keys[m] += d_logit[j] * q * scale
            d_q += d_logit[j] * keys[m] * scale
            grads["beta"][s] += d_logit[j] * float(params.w_r[s] @ rel)
            grads["w_r"][s] += d_logit[j] * params.beta[s] * rel
            grads["b_prior"][(m, s)] += d_logit[j]
        grads["w_q"][s] += np.outer(d_q, zc)
        d_zc += params.w_q[s].T @ d_q

    for idx, m in enumerate(MODALITIES):
        if m not in present:
            continue
        d_z = d_zc[idx * d_e : (idx + 1) * d_e] + params.w_k.T @ d_keys[m]
        grads["w_k"] += np.outer(d_keys[m], embeddings[m])
        grads["enc_w"][m], grads["enc_b"][m] = reference_encoder_grads(encoders[m], frame.windows[m], d_z)
    return loss, grads


def _gradient_groups(grads):
    """(label, array) per gradient group, in one fixed order."""
    out = []
    for s in AXES:
        out += [(f"w_q[{s}]", grads["w_q"][s]), (f"beta[{s}]", grads["beta"][s]),
                (f"w_r[{s}]", grads["w_r"][s])]
    out.append(("w_k", grads["w_k"]))
    out += [(f"b_prior[{key}]", v) for key, v in sorted(grads["b_prior"].items())]
    for m in sorted(grads["enc_w"]):
        for i, (w, b) in enumerate(zip(grads["enc_w"][m], grads["enc_b"][m])):
            out += [(f"enc_w[{m}][{i}]", w), (f"enc_b[{m}][{i}]", b)]
    return [(label, np.asarray(v, dtype=float)) for label, v in out]


def without(frame, modality):
    """The frame with one modality gone: no window, no estimate."""
    return dataclasses.replace(
        frame,
        windows={**frame.windows, modality: None},
        estimates={m: v for m, v in frame.estimates.items() if m != modality},
        sigmas={m: v for m, v in frame.sigmas.items() if m != modality},
    )


def mixed_frames(seed, n=24):
    """Toy frames where about a third lack UWB and a third lack baro."""
    rng = np.random.default_rng(seed)
    frames = []
    for f in toy_frames(n=n + 3, L=4, seed=seed):
        kind = int(rng.integers(3))
        frames.append(f if kind == 0 else without(f, "uwb" if kind == 1 else "baro"))
    return frames


def random_model(seed):
    rng = np.random.default_rng(seed)
    encoders = init_encoders(L=4, d_e=8, hidden=16, seed=seed)
    params = init_attention_params(d_e=8, d_k=4, seed=seed + 1)
    for s in AXES:
        params.beta[s] = float(rng.normal(1.0, 0.3))
        params.w_r[s] = rng.normal(0.0, 0.5, 2)
    for key in params.b_prior:
        params.b_prior[key] = float(rng.normal(0.0, 0.3))
    return encoders, params


class TestBatchedKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_minibatch_gradients_equal_summed_per_frame_reference(self, seed):
        frames = mixed_frames(seed)
        encoders, params = random_model(seed)
        weights = (1.0, 1.0, 2.0)
        rng = np.random.default_rng(100 + seed)
        for size in (1, 5, 16):
            rows = rng.choice(len(frames), size=size, replace=False)
            picked = [frames[r] for r in rows]
            loss, grads = fusion_loss_and_grads(
                stack_frames(picked, encoders).arrays(), encoders, params, weights
            )
            parts = [reference_loss_and_grads(f, encoders, params, weights) for f in picked]
            per_frame = [_gradient_groups(part) for _, part in parts]
            want = [
                (label, sum(groups[i][1] for groups in per_frame))
                for i, (label, _) in enumerate(per_frame[0])
            ]
            ref_loss = sum(part_loss for part_loss, _ in parts)
            assert loss == pytest.approx(ref_loss, rel=1e-10)
            got = _gradient_groups(grads)
            assert [label for label, _ in got] == [label for label, _ in want]
            for (label, g), (_, r) in zip(got, want):
                assert g.shape == r.shape, label
                np.testing.assert_allclose(g, r, rtol=1e-10, err_msg=f"{label}, batch of {size}")

    @pytest.mark.parametrize("seed", range(3))
    def test_ratios_and_fused_positions_match_the_application_path(self, seed):
        frames = mixed_frames(seed)
        encoders, params = random_model(seed)
        lam = 0.7
        gamma, fused, variance, _ = kernel(frames, encoders, params, lam)
        for i, f in enumerate(frames):
            ratios = reference_ratios_of(f, encoders, params)
            for k, s in enumerate(AXES):
                for j, m in enumerate(MODALITIES):
                    want = ratios[s].get(m, 0.0)
                    assert gamma[i, k, j] == pytest.approx(want, abs=1e-12), (i, s, m)
                x = sum(g * f.estimates[m][s] for m, g in ratios[s].items())
                var = sum(
                    g * (f.sigmas[m][s] ** 2 + lam * (f.estimates[m][s] - x) ** 2) for m, g in ratios[s].items()
                )
                assert fused[i, k] == pytest.approx(x, rel=1e-12, abs=1e-12), (i, s)
                assert variance[i, k] == pytest.approx(var, rel=1e-12, abs=1e-12), (i, s)


def _tree_leaves(tree) -> list:
    """The arrays of a tree of dicts and lists, dict keys sorted."""
    if isinstance(tree, dict):
        return [leaf for key in sorted(tree) for leaf in _tree_leaves(tree[key])]
    if isinstance(tree, list):
        return [leaf for branch in tree for leaf in _tree_leaves(branch)]
    return [tree]


def reference_train_fusion(batch, encoders, params, cfg):
    """`train_fusion` on deep copies whose arrays, every prior bias among them
    as a 0-d array, are stepped one at a time by `per_array_sgd`."""
    usable = np.flatnonzero(batch.fusible & (batch.truth is not None))
    encoders = {m: net_from_dict(net_to_dict(net)) for m, net in encoders.items()}
    params = AttentionParams(
        w_q={s: w.copy() for s, w in params.w_q.items()},
        w_k=params.w_k.copy(),
        beta={s: np.array(b, dtype=float) for s, b in params.beta.items()},
        w_r={s: w.copy() for s, w in params.w_r.items()},
        b_prior={key: np.array(b, dtype=float) for key, b in params.b_prior.items()},
        d_k=params.d_k,
    )
    n_train = min(len(usable) - 1, max(1, int(round(len(usable) * cfg.split))))
    stacked = _rows(batch.arrays(), usable)
    train_set, val_set = _rows(stacked, slice(None, n_train)), _rows(stacked, slice(n_train, None))
    for j, m in enumerate(MODALITIES):
        if train_set["ready"][:, j].any():
            fit_standardization(encoders[m], train_set[m][train_set["ready"][:, j]])
    weights = tuple(cfg.output_weights(3))

    def grads_of(rows):
        _, grads = fusion_loss_and_grads(_rows(train_set, rows), encoders, params, weights)
        return cfg.learning_rate / len(rows), _tree_leaves(grads)

    def losses():
        return tuple(_mean_loss(split, encoders, params, weights) for split in (train_set, val_set))

    tree = {key: getattr(params, key) for key in ("w_q", "w_k", "beta", "w_r", "b_prior")}
    tree["enc_w"] = {m: encoders[m].weights for m in MODALITIES}
    tree["enc_b"] = {m: encoders[m].biases for m in MODALITIES}
    history = per_array_sgd(_tree_leaves(tree), n_train, cfg, grads_of, losses)
    return encoders, params, history


class TestFusionTraining:
    def test_gradients_match_finite_differences(self):
        for seed in range(6):
            check_fusion_gradients(seed)

    def test_zero_epochs_leave_parameters_unchanged(self):
        frames = toy_frames(n=20, L=4, seed=5)
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=7)
        params = init_attention_params(d_e=8, d_k=4, seed=7)
        before = fusion_to_dict(encoders, params)
        trained_enc, trained_params, history = train_fusion(
            None,
            None,
            None,
            encoders=encoders,
            params=params,
            cfg=TrainConfig(epochs=0),
            L=4,
            frames=toy_batch(frames),
        )
        assert history == []
        after = fusion_to_dict(trained_enc, trained_params)
        # standardization is fitted even at zero epochs; weights must not move
        after["encoders"] = {
            m: {**doc, "input_mean": None, "input_std": None}
            for m, doc in after["encoders"].items()
        }
        before["encoders"] = {
            m: {**doc, "input_mean": None, "input_std": None}
            for m, doc in before["encoders"].items()
        }
        assert before == after

    def test_training_prefers_the_accurate_modality(self):
        frames = toy_frames(n=120, L=4, seed=2)
        encoders, params, history = train_fusion(
            None,
            None,
            None,
            encoders=init_encoders(L=4, d_e=8, hidden=16, seed=0),
            params=init_attention_params(d_e=8, d_k=4, seed=0),
            cfg=TrainConfig(learning_rate=0.05, epochs=150, batch_size=16, seed=0),
            L=4,
            frames=toy_batch(frames),
        )
        assert history[-1][0] < history[0][0]
        gamma, _, _, _ = kernel(frames, encoders, params)
        for k, s in enumerate(AXES):
            mean_uwb = float(np.mean(gamma[:, k, UWB]))
            assert mean_uwb > 0.9, f"axis {s}: mean uwb ratio {mean_uwb}"

    def test_training_is_deterministic(self):
        frames = toy_frames(n=30, L=4, seed=4)
        runs = [
            train_fusion(
                None,
                None,
                None,
                cfg=TrainConfig(learning_rate=0.01, epochs=5, batch_size=8, seed=9),
                L=4,
                frames=toy_batch(frames),
            )
            for _ in range(2)
        ]
        assert runs[0][2] == runs[1][2]
        assert fusion_to_dict(runs[0][0], runs[0][1]) == fusion_to_dict(runs[1][0], runs[1][1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_returns_last_good_checkpoint(self):
        # step size large enough to overflow float64 in the forward pass;
        # a merely-large rate only saturates the softmax (loss stays bounded).
        # This fit is non-finite in epoch 1, so the last good checkpoint is
        # the input; a restore in the middle of a run is pinned by
        # tests/test_nnet.py::TestSgd.
        frames = toy_frames(n=30, L=4, seed=6)
        encoders, params = random_model(5)
        given = fusion_to_dict(encoders, params)
        got_encoders, got_params, history = train_fusion(
            None,
            None,
            None,
            encoders,
            params,
            cfg=TrainConfig(learning_rate=1e300, epochs=10, batch_size=8, seed=1),
            L=4,
            frames=toy_batch(frames),
        )
        assert history == []
        got = fusion_to_dict(got_encoders, got_params)
        assert got["attention"] == given["attention"]
        for m in MODALITIES:
            # the input standardization is fitted to the frames, not trained
            for key in ("weights", "biases"):
                assert got["encoders"][m][key] == given["encoders"][m][key]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=2),
            TrainConfig(learning_rate=0.02, epochs=2, batch_size=5, seed=6, split=0.6),
            TrainConfig(learning_rate=1e300, epochs=10, batch_size=8, seed=1),  # diverges in epoch 1
        ],
    )
    def test_equals_the_per_array_reference(self, cfg):
        batch = toy_batch(mixed_frames(seed=3, n=30))
        encoders, params = random_model(5)
        got_enc, got, history = train_fusion(None, None, None, encoders, params, cfg, L=4, frames=batch)
        want_enc, want, want_history = reference_train_fusion(batch, encoders, params, cfg)
        assert history == want_history
        for m in MODALITIES:
            got_arrays, want_arrays = (
                [*net.weights, *net.biases, net.input_mean, net.input_std] for net in (got_enc[m], want_enc[m])
            )
            for a, b in zip(got_arrays, want_arrays, strict=True):
                assert np.array_equal(a, b), m
        assert np.array_equal(got.w_k, want.w_k)
        for s in AXES:
            assert np.array_equal(got.w_q[s], want.w_q[s]) and np.array_equal(got.w_r[s], want.w_r[s]), s
            assert np.array_equal(got.beta[s], want.beta[s]), s
        for key in want.b_prior:
            assert np.array_equal(got.b_prior[key], want.b_prior[key]), key

    def test_inputs_are_untouched_and_untrainable_priors_keep_their_values(self):
        frames = toy_frames(n=30, L=4, seed=4)
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=2)
        params = init_attention_params(d_e=8, d_k=4, seed=2)
        params.b_prior[("baro", "x")], params.b_prior[("baro", "y")] = 0.25, -1.5
        before = fusion_to_dict(encoders, params)
        _, trained, _ = train_fusion(
            None,
            None,
            None,
            encoders=encoders,
            params=params,
            cfg=TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=2),
            L=4,
            frames=toy_batch(frames),
        )
        assert fusion_to_dict(encoders, params) == before
        for s, want in (("x", 0.25), ("y", -1.5)):
            assert isinstance(trained.b_prior[("baro", s)], float)
            assert trained.b_prior[("baro", s)] == want

    def test_short_run_steps_every_scalar_parameter(self):
        frames = toy_frames(n=30, L=4, seed=4)
        params = init_attention_params(d_e=8, d_k=4, seed=2)
        _, trained, history = train_fusion(
            None,
            None,
            None,
            encoders=init_encoders(L=4, d_e=8, hidden=16, seed=2),
            params=params,
            cfg=TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, seed=2),
            L=4,
            frames=toy_batch(frames),
        )
        assert len(history) == 2
        for s in AXES:
            assert isinstance(trained.beta[s], float)
            assert trained.beta[s] != params.beta[s], s
            for m in MODALITIES:
                # a modality an axis may not weigh gets no gradient on that axis
                moved = trained.b_prior[(m, s)] != params.b_prior[(m, s)]
                assert moved == (m in AXIS_MODALITIES[s]), (m, s)


class TestPipeline:
    def test_warmup_then_fusion_covers_every_epoch(self):
        scenario = quiet_scenario(duration=8.0)
        frames = collect_fusion_frames(scenario, None, None, L=10)
        assert len(frames) == 80
        encoders = init_encoders(L=10, seed=0)
        params = init_attention_params(seed=0)
        (t, positions, sigmas), observations = run_fusion(frames, encoders, params)
        assert len(positions) == len(sigmas) == len(observations) == len(frames)
        assert t.tolist() == [f.t for f in frames]
        assert np.all(np.isfinite(positions))
        assert np.all(sigmas > 0)
        # first epochs fall back; once windows fill the fused path takes over
        assert observations[0] is None
        fused = [o for o in observations if o is not None]
        assert len(fused) == 80 - 9
        for obs in fused[:5]:
            for s, axis in obs.ratios.items():
                if axis:
                    assert sum(axis.values()) == pytest.approx(1.0, abs=1e-9)

    def test_no_fusible_frame_falls_back_everywhere(self):
        scenario = quiet_scenario(duration=0.5)
        frames = collect_fusion_frames(scenario, None, None, L=10)
        assert frames and not any(f.fusible() for f in frames)
        encoders, params = init_encoders(L=10, seed=0), init_attention_params(seed=0)
        track, observations = run_fusion(stack_frames([], encoders), encoders, params)
        assert [len(values) for values in track] == [0, 0, 0] and len(observations) == 0
        (t, positions, sigmas), observations = run_fusion(frames, encoders, params)
        assert list(observations) == [None] * len(frames)
        for i, frame in enumerate(frames):
            assert t[i] == frame.t
            assert positions[i].tolist() == frame.fallback.position.as_array().tolist()
            assert sigmas[i] == pytest.approx([s * WARMUP_SIGMA_INFLATION for s in frame.fallback.sigma])
        assert [len(values) for values in amfa_pipeline(scenario, None, None, encoders, params)] == [0, 0, 0]

    def test_zero_fused_variance_reaches_the_ukf_floored(self):
        # every ready modality reads 0 m with sigma 0, so the fused variance
        # is exactly 0; the UKF needs a strictly positive measurement variance
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=0)
        params = init_attention_params(d_e=8, d_k=4, seed=0)
        frames = []
        for k in range(5):
            frame = kernel_frame(random_windows(seed=k))
            zero = {m: {s: 0.0 for s in axes} for m, axes in frame.sigmas.items()}
            frames.append(dataclasses.replace(frame, t=0.1 * (k + 1), sigmas=zero))
        _, _, variance, _ = kernel(frames, encoders, params)
        assert np.all(variance == 0.0)
        (_, positions, sigmas), observations = run_fusion(stack_frames(frames, encoders), encoders, params)
        assert all(obs is not None for obs in observations)
        assert np.all(np.isfinite(positions))
        assert np.all(np.isfinite(sigmas) & (sigmas > 0))

    def test_frames_track_truth_in_noiseless_setting(self):
        scenario = quiet_scenario(duration=6.0)
        frames = collect_fusion_frames(scenario, None, None, L=10)
        last = frames[-1]
        for m in ("uwb", "gpsins"):
            est = np.array([last.estimates[m][s] for s in AXES])
            assert np.allclose(est, last.truth_position, atol=0.05), m
        assert last.estimates["baro"]["z"] == pytest.approx(last.truth_position[2], abs=0.01)

    def test_baro_spread_equals_exact_population_variance(self):
        L = 10
        scenario = simulate_scenario(
            ScenarioConfig(duration=20.0, profile=TrajectoryProfile(pauses=()), seed=5)
        )
        frames = collect_fusion_frames(scenario, None, None, L=L)
        on = np.array(["baro" in f.estimates for f in frames])
        first = int(np.argmax(on))
        altitudes = np.array([f.estimates["baro"]["z"] if o else np.nan for f, o in zip(frames, on)])
        spread = _recent_spread(altitudes, first, L)
        for e, frame in enumerate(frames):
            recent = altitudes[max(first, e - L + 1) : e + 1].tolist() if on[e] else []
            exact = statistics.pvariance(recent) if len(recent) > 1 else 0.0
            assert spread[e] == pytest.approx(exact, rel=1e-12, abs=0.0), e
            if on[e]:
                assert frame.reliability.baro[0] == 1.0 / (1.0 + spread[e])
                # no baro model: every sigma is the spread of the last <= L+1 altitudes
                exact_sigma = max(statistics.pstdev(altitudes[max(first, e - L) : e + 1].tolist()), SIGMA_MIN)
                assert frame.sigmas["baro"]["z"] == pytest.approx(exact_sigma, rel=1e-12, abs=0.0), e
        assert np.all(_recent_spread(np.full(7, 3.7), 2, 4) == 0.0)

    def test_degrades_gracefully_without_uwb(self):
        scenario = quiet_scenario(duration=8.0)
        scenario = dataclasses.replace(scenario, uwb=scenario.uwb[:0])
        frames = collect_fusion_frames(scenario, None, None, L=10)
        assert len(frames) == 80
        (t, _, _), observations = run_fusion(
            frames, init_encoders(L=10, seed=0), init_attention_params(seed=0)
        )
        assert len(t) == 80
        fused = [o for o in observations if o is not None]
        assert fused, "fusion never engaged"
        for obs in fused:
            assert set(obs.ratios["x"]) == {"gpsins"}
            assert set(obs.ratios["z"]) <= {"gpsins", "baro"}

    def test_modality_never_present_is_not_reported_as_dropped(self, caplog):
        scenario = quiet_scenario(duration=4.0)
        scenario = dataclasses.replace(scenario, uwb=scenario.uwb[:0])
        frames = collect_fusion_frames(scenario, None, None, L=10)
        with caplog.at_level("WARNING", logger="climbloc.fusion"):
            run_fusion(frames, init_encoders(L=10, seed=0), init_attention_params(seed=0))
        assert caplog.records == []

    def test_modality_dropping_out_mid_run_is_reported_once(self, caplog):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=0)
        frames = []
        for k in range(8):
            frame = dataclasses.replace(kernel_frame(random_windows(seed=k)), t=0.1 * (k + 1))
            # UWB is ready, gone at t=0.3-0.4, back, then gone again at t=0.7
            frames.append(without(frame, "uwb") if k in (2, 3, 6) else frame)
        with caplog.at_level("WARNING", logger="climbloc.fusion"):
            run_fusion(stack_frames(frames, encoders), encoders, init_attention_params(d_e=8, d_k=4, seed=0))
        assert [r.getMessage() for r in caplog.records] == [
            "modality uwb unavailable at t=0.300; fusing without it"
        ]

    def test_amfa_pipeline_end_to_end_shape(self):
        scenario = quiet_scenario(duration=6.0)
        t, positions, sigmas = amfa_pipeline(
            scenario, None, None, init_encoders(L=10, seed=1), init_attention_params(seed=1)
        )
        # epochs at 10 Hz; the first nine cannot fuse (windows filling) and
        # are not emitted, so the trajectory runs t=1.0..6.0
        assert len(t) == len(positions) == len(sigmas) == 51
        assert t[0] == pytest.approx(1.0)
        assert t[-1] == pytest.approx(6.0)


class TestSerialization:
    def test_bundle_round_trip_is_exact(self):
        encoders = init_encoders(L=4, d_e=8, hidden=16, seed=3)
        params = init_attention_params(d_e=8, d_k=4, seed=3)
        params.b_prior[("uwb", "y")] = 0.125
        doc = fusion_to_dict(encoders, params, UkfState(q=0.2), L=4, lam=0.5)
        enc2, params2, ukf2, L, lam = fusion_from_dict(doc)
        assert (L, lam) == (4, 0.5)
        assert ukf2.q == 0.2
        assert fusion_to_dict(enc2, params2, ukf2, L, lam) == doc

    def test_rejects_foreign_documents(self):
        from climbloc.errors import ConfigError

        with pytest.raises(ConfigError, match="kind"):
            fusion_from_dict({"kind": "uwb-fcnn"})
        doc = fusion_to_dict(
            init_encoders(L=4, d_e=8, hidden=16, seed=0),
            init_attention_params(d_e=8, d_k=4, seed=0),
        )
        doc["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            fusion_from_dict(doc)
