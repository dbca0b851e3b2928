"""Tests for trajectory error metrics, CDF tables, and report CSVs."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from climbloc.core import Vec3Enu
from climbloc.errors import NumericalFailureError
from climbloc.metrics import (
    BOXPLOT_COLUMNS,
    METRICS_COLUMNS,
    REFERENCE_LABEL,
    REFERENCE_MAX_M,
    REFERENCE_RMSE_M,
    REFERENCE_STD_M,
    ErrorSeries,
    boxplot_summary,
    composite_objective,
    compute_cdf,
    compute_metrics,
    match_series,
    write_boxplot_csv,
    write_cdf_csv,
    write_metrics_csv,
)
from climbloc.solvers import PoseEstimate


def pose_arrays(poses):
    """Split PoseEstimate records into (times, positions, sigmas) arrays."""
    t = np.array([p.t for p in poses], dtype=float)
    xyz = np.array([p.position.as_array() for p in poses], dtype=float).reshape(len(poses), 3)
    sigma = np.array([p.sigma for p in poses], dtype=float).reshape(len(poses), 3)
    return t, xyz, sigma


def series_from_errors(errors, traces=None):
    errors = np.asarray(errors, dtype=float)
    n = len(errors)
    return ErrorSeries(
        times=np.arange(n, dtype=float),
        errors=errors,
        magnitudes=np.linalg.norm(errors, axis=1),
        cov_traces=np.zeros(n) if traces is None else np.asarray(traces, dtype=float),
        excluded=0,
        tolerance=0.5,
    )


finite_errors = st.lists(
    st.tuples(*[st.floats(-100.0, 100.0) for _ in range(3)]),
    min_size=1,
    max_size=40,
)


class TestMatching:
    def test_identical_grids_match_everything(self):
        t = np.arange(0.0, 5.0, 0.1)
        xyz = np.column_stack([t, 2 * t, np.zeros_like(t)])
        series = match_series(t, xyz, t, xyz)
        assert series.matched == len(t)
        assert series.excluded == 0
        assert np.allclose(series.errors, 0.0)

    def test_default_tolerance_is_half_truth_spacing(self):
        truth_t = np.array([0.0, 1.0, 2.0])
        truth = np.zeros((3, 3))
        inside = match_series([1.4], np.ones((1, 3)), truth_t, truth)
        outside = match_series([1.6], np.ones((1, 3)), truth_t, truth)
        assert inside.matched == 1  # 1.4 is 0.4 from truth epoch 1.0
        assert outside.matched == 1  # 1.6 is 0.4 from truth epoch 2.0
        far = match_series([0.51], np.ones((1, 3)), truth_t, truth, tolerance=0.005)
        assert far.matched == 0
        assert far.excluded == 1

    def test_nearest_truth_sample_wins(self):
        truth_t = np.array([0.0, 1.0])
        truth = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        series = match_series([0.9], [[10.0, 0.0, 0.0]], truth_t, truth)
        assert series.matched == 1
        assert np.allclose(series.errors, 0.0)  # matched against the 1.0 sample

    def test_one_to_one_keeps_the_closer_claimant(self):
        truth_t = np.array([0.0, 5.0])
        truth = np.zeros((2, 3))
        est_t = [0.2, 0.05]
        series = match_series(est_t, np.ones((2, 3)), truth_t, truth)
        assert series.matched == 1
        assert series.excluded == 1
        assert series.times[0] == pytest.approx(0.05)

    def test_unsorted_truth_is_handled(self):
        truth_t = np.array([2.0, 0.0, 1.0])
        truth = np.array([[2.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        series = match_series([1.0], [[1.0, 0.0, 0.0]], truth_t, truth)
        assert series.matched == 1
        assert np.allclose(series.errors, 0.0)

    def test_no_truth_raises(self):
        with pytest.raises(NumericalFailureError):
            match_series([0.0], [[0.0, 0.0, 0.0]], [], np.zeros((0, 3)))

    def test_pose_arrays_round_trip(self):
        poses = [
            PoseEstimate(t=0.5, position=Vec3Enu(1.0, 2.0, 3.0), sigma=(0.1, 0.2, 0.3), source="x"),
            PoseEstimate(t=0.6, position=Vec3Enu(4.0, 5.0, 6.0), sigma=(0.4, 0.5, 0.6), source="x"),
        ]
        t, xyz, sigma = pose_arrays(poses)
        assert t.tolist() == [0.5, 0.6]
        assert xyz.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert sigma.shape == (2, 3)


class TestMetrics:
    def test_hand_case_five_and_zero(self):
        # magnitudes {5, 0}: rmse sqrt(12.5), std 2.5 (population), max 5
        row = compute_metrics(series_from_errors([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert row.rmse == pytest.approx(3.535534, abs=1e-6)
        assert row.rmse == math.sqrt(12.5)
        assert row.std == 2.5
        assert row.max_error == 5.0
        assert row.mean_error == 2.5
        assert row.mae_axes == (2.5, 0.0, 0.0)

    def test_perfect_estimate_gives_zeros(self):
        row = compute_metrics(series_from_errors(np.zeros((7, 3))))
        assert row.rmse == 0.0
        assert row.std == 0.0
        assert row.max_error == 0.0
        assert row.mae_axes == (0.0, 0.0, 0.0)
        assert row.rmse_axes == (0.0, 0.0, 0.0)

    def test_zero_matched_epochs_rejected(self):
        empty = ErrorSeries(
            times=np.zeros(0),
            errors=np.zeros((0, 3)),
            magnitudes=np.zeros(0),
            cov_traces=np.zeros(0),
            excluded=3,
            tolerance=0.05,
        )
        with pytest.raises(NumericalFailureError):
            compute_metrics(empty)

    @given(finite_errors)
    @settings(max_examples=60, deadline=None)
    def test_rmse_identity_and_ordering(self, errors):
        row = compute_metrics(series_from_errors(errors))
        # rmse over magnitudes equals sqrt of summed per-axis mean squares
        axis_form = math.sqrt(sum(v * v for v in row.rmse_axes))
        assert row.rmse == pytest.approx(axis_form, rel=1e-12, abs=1e-12)
        assert 0.0 <= row.rmse <= row.max_error + 1e-12

    @given(finite_errors, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_epoch_permutation_invariance(self, errors, rnd):
        shuffled = list(errors)
        rnd.shuffle(shuffled)
        a = compute_metrics(series_from_errors(errors))
        b = compute_metrics(series_from_errors(shuffled))
        assert a.rmse == pytest.approx(b.rmse, rel=1e-12, abs=1e-15)
        assert a.max_error == b.max_error
        assert a.mae_axes == pytest.approx(b.mae_axes, rel=1e-12, abs=1e-15)


class TestCdf:
    def test_hand_fractions(self):
        mags = [1.0, 2.0, 3.0, 4.0]
        assert compute_cdf(mags, [2.5]) == [0.5]
        assert compute_cdf(mags, [0.5]) == [0.0]
        assert compute_cdf(mags, [9.0]) == [1.0]

    def test_right_continuous_at_sample_values(self):
        assert compute_cdf([1.0, 2.0], [1.0]) == [0.5]

    def test_fraction_at_max_is_one(self):
        mags = np.array([0.3, 0.9, 2.4])
        row = compute_metrics(series_from_errors(np.column_stack([mags, 0 * mags, 0 * mags])))
        assert compute_cdf(mags, [row.max_error]) == [1.0]

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            compute_cdf([1.0], [2.0, 1.0])

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30),
        st.lists(st.floats(0.0, 60.0), min_size=1, max_size=10).map(sorted),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, mags, thresholds):
        fractions = compute_cdf(mags, thresholds)
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))


class TestCompositeObjective:
    def test_pure_accuracy_term(self):
        row = compute_metrics(series_from_errors([[3.0, 0, 0], [1.0, 0, 0]], traces=[9.0, 1.0]))
        assert composite_objective(row, 1.0, 0.0) == row.mean_error == 2.0

    def test_pure_covariance_term(self):
        row = compute_metrics(series_from_errors([[3.0, 0, 0], [1.0, 0, 0]], traces=[9.0, 1.0]))
        assert composite_objective(row, 0.0, 1.0) == 5.0

    def test_perfect_and_certain_scores_zero(self):
        row = compute_metrics(series_from_errors(np.zeros((4, 3))))
        assert composite_objective(row, 1.0, 1.0) == 0.0

    def test_negative_weights_rejected(self):
        row = compute_metrics(series_from_errors(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            composite_objective(row, -1.0, 0.0)


class TestBoxplot:
    def test_linear_interpolation_quartiles(self):
        s = boxplot_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.minimum, s.maximum) == (1.0, 5.0)
        assert s.outliers == ()

    def test_constant_series(self):
        s = boxplot_summary([2.0] * 6)
        assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 2.0
        assert s.outliers == ()

    def test_tukey_outlier_flagged(self):
        s = boxplot_summary([1.0, 1.0, 1.0, 1.0, 100.0])
        assert s.outliers == (100.0,)

    def test_empty_rejected(self):
        with pytest.raises(NumericalFailureError):
            boxplot_summary([])


class TestCsvOutputs:
    def test_metrics_csv_columns_and_reference_footer(self, tmp_path):
        rows = [
            compute_metrics(series_from_errors([[5.0, 0, 0], [0.0, 0, 0]]), algorithm="uwb-geo"),
            compute_metrics(series_from_errors(np.zeros((3, 3))), algorithm="amfa"),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows, include_reference=True)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == METRICS_COLUMNS
        assert [r[0] for r in records[1:]] == ["uwb-geo", "amfa", REFERENCE_LABEL]
        footer = records[-1]
        assert [float(footer[1]), float(footer[2]), float(footer[3])] == [
            REFERENCE_RMSE_M,
            REFERENCE_STD_M,
            REFERENCE_MAX_M,
        ]
        assert footer[4:] == ["", "", "", ""]  # reference row carries no run stats

    def test_cdf_csv_layout(self, tmp_path):
        thresholds = [0.5, 1.0, 2.0]
        table = {
            "amfa": compute_cdf([0.2, 0.7, 1.5], thresholds),
            "uwb-geo": compute_cdf([0.9, 1.8, 3.0], thresholds),
        }
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, thresholds, table)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["threshold", "amfa", "uwb-geo"]
        assert len(records) == 1 + len(thresholds)
        assert float(records[1][1]) == table["amfa"][0]

    def test_cdf_csv_rejects_ragged_table(self, tmp_path):
        with pytest.raises(ValueError):
            write_cdf_csv(tmp_path / "cdf.csv", [0.5, 1.0], {"amfa": [0.1]})

    def test_boxplot_csv(self, tmp_path):
        summaries = [
            boxplot_summary([1.0, 1.0, 1.0, 1.0, 100.0], algorithm="baro"),
            boxplot_summary([1.0, 2.0, 3.0, 4.0, 5.0], algorithm="amfa"),
        ]
        path = tmp_path / "boxplot.csv"
        write_boxplot_csv(path, summaries)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == BOXPLOT_COLUMNS
        assert records[1][0] == "baro"
        assert records[1][-1] == "1"
        assert records[2][-1] == "0"
