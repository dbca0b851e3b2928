"""Tests for trajectory error metrics, CDF tables, and report CSVs."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    boxplot_summary,
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


def row_of(errors, sigmas=None, algorithm=""):
    """The report row of matched errors, with zero sigmas unless given."""
    errors = np.asarray(errors, dtype=float)
    sigmas = np.zeros_like(errors) if sigmas is None else sigmas
    return compute_metrics(errors, sigmas, algorithm, 0)


def matched_errors(est_t, est_xyz, truth_t, truth_xyz, tolerance=None):
    """(errors, excluded) of the estimate against truth after matching."""
    i, j, excluded = match_series(est_t, truth_t, tolerance)
    return np.asarray(est_xyz, dtype=float)[i] - np.asarray(truth_xyz, dtype=float)[j], excluded


def _loop_match(est_t, truth_t, tolerance=None):
    """The per-epoch matching loop `match_series` replaced, kept as its reference."""
    est_t = np.asarray(est_t, dtype=float)
    truth_t = np.asarray(truth_t, dtype=float)
    order = np.argsort(truth_t, kind="stable")
    truth_t = truth_t[order]
    if tolerance is None:
        tolerance = float(np.median(np.diff(truth_t))) / 2.0 if len(truth_t) >= 2 else 1e-9

    right = np.searchsorted(truth_t, est_t)
    best = {}  # truth index -> (gap, estimate index)
    excluded = 0
    for i, t in enumerate(est_t):
        candidates = [j for j in (right[i] - 1, right[i]) if 0 <= j < len(truth_t)]
        j = min(candidates, key=lambda j: abs(truth_t[j] - t))
        gap = abs(truth_t[j] - t)
        if gap > tolerance:
            excluded += 1
            continue
        if j in best and best[j][0] <= gap:
            excluded += 1
            continue
        if j in best:
            excluded += 1  # the previous, farther claimant loses its slot
        best[j] = (gap, i)

    rows = sorted((i, j) for j, (_, i) in best.items())
    return [i for i, _ in rows], [int(order[j]) for _, j in rows], excluded


finite_errors = st.lists(
    st.tuples(*[st.floats(-100.0, 100.0) for _ in range(3)]),
    min_size=1,
    max_size=40,
)
# quarter-second times: exact in binary, so draws repeat truth times and put
# estimates exactly halfway between two truth samples or on a tolerance edge
quarter_times = st.integers(-12, 12).map(lambda k: k / 4)


class TestMatching:
    def test_identical_grids_match_everything(self):
        t = np.arange(0.0, 5.0, 0.1)
        xyz = np.column_stack([t, 2 * t, np.zeros_like(t)])
        errors, excluded = matched_errors(t, xyz, t, xyz)
        assert len(errors) == len(t)
        assert excluded == 0
        assert np.allclose(errors, 0.0)

    def test_default_tolerance_is_half_truth_spacing(self):
        truth_t = np.array([0.0, 1.0, 2.0])
        inside = match_series([1.4], truth_t)
        outside = match_series([1.6], truth_t)
        assert len(inside[0]) == 1  # 1.4 is 0.4 from truth epoch 1.0
        assert len(outside[0]) == 1  # 1.6 is 0.4 from truth epoch 2.0
        est_rows, truth_rows, excluded = match_series([0.51], truth_t, tolerance=0.005)
        assert len(est_rows) == len(truth_rows) == 0
        assert excluded == 1

    def test_nearest_truth_sample_wins(self):
        truth_t = np.array([0.0, 1.0])
        truth = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        errors, _ = matched_errors([0.9], [[10.0, 0.0, 0.0]], truth_t, truth)
        assert len(errors) == 1
        assert np.allclose(errors, 0.0)  # matched against the 1.0 sample

    def test_one_to_one_keeps_the_closer_claimant(self):
        est_rows, truth_rows, excluded = match_series([0.2, 0.05], [0.0, 5.0])
        assert est_rows.tolist() == [1]  # the estimate at 0.05
        assert truth_rows.tolist() == [0]
        assert excluded == 1

    def test_unsorted_truth_is_handled(self):
        truth_t = np.array([2.0, 0.0, 1.0])
        truth = np.array([[2.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        errors, _ = matched_errors([1.0], [[1.0, 0.0, 0.0]], truth_t, truth)
        assert len(errors) == 1
        assert np.allclose(errors, 0.0)
        assert match_series([1.0], truth_t)[1].tolist() == [2]  # an index into truth as given

    def test_no_truth_raises(self):
        with pytest.raises(NumericalFailureError):
            match_series([0.0], [])

    @given(
        st.lists(quarter_times, min_size=1, max_size=12),
        st.lists(quarter_times | st.floats(-4.0, 4.0), max_size=20),
        st.none() | st.sampled_from([0.0, 0.125, 0.25, 0.5]) | st.floats(0.0, 3.0),
    )
    @example(truth_t=[0.0, 1.0, 1.0], est_t=[1.5], tolerance=1.0)  # past two duplicate last times
    @example(truth_t=[1.0, 0.0, 1.0], est_t=[0.5, 0.5, 1.5, 1.25], tolerance=None)
    @settings(max_examples=300, deadline=None)
    def test_array_match_equals_the_loop(self, truth_t, est_t, tolerance):
        est_rows, truth_rows, excluded = match_series(est_t, truth_t, tolerance)
        assert (est_rows.tolist(), truth_rows.tolist(), excluded) == _loop_match(est_t, truth_t, tolerance)

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
        row = row_of([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert row["rmse"] == pytest.approx(3.535534, abs=1e-6)
        assert row["rmse"] == math.sqrt(12.5)
        assert row["std"] == 2.5
        assert row["max"] == 5.0
        assert row["mean_error"] == 2.5
        assert row["mae"] == [2.5, 0.0, 0.0]

    def test_perfect_estimate_gives_zeros(self):
        row = row_of(np.zeros((7, 3)))
        assert row["rmse"] == 0.0
        assert row["std"] == 0.0
        assert row["max"] == 0.0
        assert row["mae"] == [0.0, 0.0, 0.0]
        assert row["rmse_axes"] == [0.0, 0.0, 0.0]

    def test_zero_matched_epochs_rejected(self):
        with pytest.raises(NumericalFailureError):
            compute_metrics(np.zeros((0, 3)), np.zeros((0, 3)), "", 3)

    @given(finite_errors)
    @settings(max_examples=60, deadline=None)
    def test_rmse_identity_and_ordering(self, errors):
        row = row_of(errors)
        # rmse over magnitudes equals sqrt of summed per-axis mean squares
        axis_form = math.sqrt(sum(v * v for v in row["rmse_axes"]))
        assert row["rmse"] == pytest.approx(axis_form, rel=1e-12, abs=1e-12)
        assert 0.0 <= row["rmse"] <= row["max"] + 1e-12

    @given(finite_errors, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_epoch_permutation_invariance(self, errors, rnd):
        shuffled = list(errors)
        rnd.shuffle(shuffled)
        a = row_of(errors)
        b = row_of(shuffled)
        assert a["rmse"] == pytest.approx(b["rmse"], rel=1e-12, abs=1e-15)
        assert a["max"] == b["max"]
        assert a["mae"] == pytest.approx(b["mae"], rel=1e-12, abs=1e-15)


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
        row = row_of(np.column_stack([mags, 0 * mags, 0 * mags]))
        assert compute_cdf(mags, [row["max"]]) == [1.0]

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
    # sigmas (3, 0, 0) and (1, 0, 0): covariance traces 9 and 1
    SIGMAS = [[3.0, 0.0, 0.0], [1.0, 0.0, 0.0]]

    def test_pure_accuracy_term(self):
        row = row_of([[3.0, 0, 0], [1.0, 0, 0]])
        assert row["composite"] == row["mean_error"] == 2.0

    def test_pure_covariance_term(self):
        row = row_of(np.zeros((2, 3)), self.SIGMAS)
        assert row["composite"] == 5.0

    def test_perfect_and_certain_scores_zero(self):
        assert row_of(np.zeros((4, 3)))["composite"] == 0.0


class TestBoxplot:
    def test_linear_interpolation_quartiles(self):
        lo, q1, median, q3, hi, outliers = boxplot_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, median, q3) == (2.0, 3.0, 4.0)
        assert (lo, hi) == (1.0, 5.0)
        assert outliers == ()

    def test_constant_series(self):
        lo, q1, median, q3, hi, outliers = boxplot_summary([2.0] * 6)
        assert lo == q1 == median == q3 == hi == 2.0
        assert outliers == ()

    def test_tukey_outlier_flagged(self):
        assert boxplot_summary([1.0, 1.0, 1.0, 1.0, 100.0])[-1] == (100.0,)

    def test_empty_rejected(self):
        with pytest.raises(NumericalFailureError):
            boxplot_summary([])


class TestCsvOutputs:
    def test_metrics_csv_columns_and_reference_footer(self, tmp_path):
        rows = [
            row_of([[5.0, 0, 0], [0.0, 0, 0]], algorithm="uwb-geo"),
            row_of(np.zeros((3, 3)), algorithm="amfa"),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == METRICS_COLUMNS
        assert [r[0] for r in records[1:]] == ["uwb-geo", "amfa", REFERENCE_LABEL]
        assert records[1][1:] == [repr(rows[0][k]) for k in ("rmse", "std", "max")] + [
            *map(repr, rows[0]["mae"]), "2"
        ]
        footer = records[-1]
        assert [float(footer[1]), float(footer[2]), float(footer[3])] == [
            REFERENCE_RMSE_M,
            REFERENCE_STD_M,
            REFERENCE_MAX_M,
        ]
        assert footer[4:] == ["", "", "", ""]  # reference row carries no run stats

    def test_cdf_csv_layout(self, tmp_path):
        thresholds = [0.5, 1.0, 2.0]
        rows = [row_of(np.zeros((1, 3)), algorithm="amfa"), row_of(np.zeros((1, 3)), algorithm="uwb-geo")]
        fractions = [compute_cdf([0.2, 0.7, 1.5], thresholds), compute_cdf([0.9, 1.8, 3.0], thresholds)]
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, thresholds, rows, fractions)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["threshold", "amfa", "uwb-geo"]
        assert len(records) == 1 + len(thresholds)
        assert float(records[1][1]) == fractions[0][0]

    def test_cdf_csv_rejects_ragged_table(self, tmp_path):
        rows = [row_of(np.zeros((1, 3)), algorithm="amfa")]
        with pytest.raises(ValueError):
            write_cdf_csv(tmp_path / "cdf.csv", [0.5, 1.0], rows, [[0.1]])

    def test_boxplot_csv(self, tmp_path):
        rows = [row_of(np.zeros((1, 3)), algorithm="baro"), row_of(np.zeros((1, 3)), algorithm="amfa")]
        summaries = [boxplot_summary([1.0, 1.0, 1.0, 1.0, 100.0]), boxplot_summary([1.0, 2.0, 3.0, 4.0, 5.0])]
        path = tmp_path / "boxplot.csv"
        write_boxplot_csv(path, rows, summaries)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        assert tuple(records[0]) == BOXPLOT_COLUMNS
        assert records[1][0] == "baro"
        assert records[1][-1] == "1"
        assert records[2][-1] == "0"
