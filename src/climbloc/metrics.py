"""Trajectory accuracy metrics and plot-ready CSV reports.

Errors are per-epoch vectors estimate - truth after nearest-neighbor
timestamp matching. Every summary statistic is computed from Euclidean
per-epoch magnitudes, not from axis-averaged errors, so RMSE here equals
sqrt(sum of per-axis mean squared errors).

CSV column orders are part of the public contract:
    metrics.csv  algorithm, rmse, std, max, mae_x, mae_y, mae_z, matched_epochs
    cdf.csv      threshold, then one fraction column per algorithm
    boxplot.csv  algorithm, min, q1, median, q3, max, n_outliers
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError

# Field accuracy of the fused stack measured on the original climbing-robot
# hardware (RMSE / STD / MAX, meters). Shown in reports for context only;
# simulated runs are never asserted against these.
REFERENCE_ALGORITHM = "amfa"
REFERENCE_RMSE_M = 0.48
REFERENCE_STD_M = 0.43
REFERENCE_MAX_M = 1.50
REFERENCE_LABEL = "amfa [hardware reference]"

METRICS_COLUMNS = ("algorithm", "rmse", "std", "max", "mae_x", "mae_y", "mae_z", "matched_epochs")
BOXPLOT_COLUMNS = ("algorithm", "min", "q1", "median", "q3", "max", "n_outliers")


@dataclass(frozen=True)
class ErrorSeries:
    """Matched per-epoch errors for one estimated trajectory.

    times/errors/magnitudes/cov_traces are aligned arrays over the matched
    epochs; excluded counts estimate epochs that found no truth sample
    within the matching tolerance.
    """

    times: np.ndarray
    errors: np.ndarray  # (n, 3), estimate - truth
    magnitudes: np.ndarray
    cov_traces: np.ndarray  # trace of the reported covariance per epoch
    excluded: int
    tolerance: float

    def __post_init__(self):
        if self.errors.shape != (len(self.times), 3):
            raise ValueError(f"errors must be (n, 3), got {self.errors.shape}")

    @property
    def matched(self) -> int:
        return len(self.times)


def _default_tolerance(truth_t: np.ndarray) -> float:
    # half the truth epoch spacing; a lone truth sample only matches exactly
    if len(truth_t) < 2:
        return 1e-9
    return float(np.median(np.diff(truth_t))) / 2.0


def match_series(est_t, est_xyz, truth_t, truth_xyz, est_sigma=None, tolerance=None) -> ErrorSeries:
    """Pair estimate epochs with truth epochs and return the error series.

    Each estimate epoch is assigned its nearest truth timestamp; pairs
    further apart than `tolerance` (default: half the median truth spacing)
    are excluded and counted. Matching is one-to-one: when two estimates
    land on the same truth sample only the closer one survives.

    est_sigma, if given, holds per-axis standard deviations (n, 3) used for
    the reported-covariance traces; otherwise traces are zero.
    """
    est_t = np.asarray(est_t, dtype=float)
    est_xyz = np.asarray(est_xyz, dtype=float)
    truth_t = np.asarray(truth_t, dtype=float)
    truth_xyz = np.asarray(truth_xyz, dtype=float)
    if len(truth_t) == 0:
        raise NumericalFailureError("no truth epochs to match against")

    order = np.argsort(truth_t, kind="stable")
    truth_t, truth_xyz = truth_t[order], truth_xyz[order]
    if tolerance is None:
        tolerance = _default_tolerance(truth_t)

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
    idx_est = np.array([i for i, _ in rows], dtype=int)
    idx_truth = np.array([j for _, j in rows], dtype=int)
    errors = est_xyz[idx_est] - truth_xyz[idx_truth] if rows else np.zeros((0, 3))
    if est_sigma is not None and rows:
        sig = np.asarray(est_sigma, dtype=float)[idx_est]
        traces = np.sum(sig * sig, axis=1)
    else:
        traces = np.zeros(len(rows))
    return ErrorSeries(
        times=est_t[idx_est] if rows else np.zeros(0),
        errors=errors,
        magnitudes=np.linalg.norm(errors, axis=1),
        cov_traces=traces,
        excluded=excluded,
        tolerance=float(tolerance),
    )


@dataclass(frozen=True)
class MetricsRow:
    """Summary statistics for one algorithm on one scenario (meters)."""

    algorithm: str
    rmse: float
    std: float
    max_error: float
    mean_error: float
    mae_axes: tuple  # (x, y, z)
    rmse_axes: tuple
    mean_cov_trace: float
    matched_epochs: int
    excluded_epochs: int = 0

    def csv_record(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "rmse": repr(self.rmse),
            "std": repr(self.std),
            "max": repr(self.max_error),
            "mae_x": repr(self.mae_axes[0]),
            "mae_y": repr(self.mae_axes[1]),
            "mae_z": repr(self.mae_axes[2]),
            "matched_epochs": str(self.matched_epochs),
        }


def compute_metrics(series: ErrorSeries, algorithm: str = "") -> MetricsRow:
    """Reduce an error series to its headline statistics.

    RMSE is sqrt(mean squared Euclidean magnitude); STD is the population
    standard deviation of the magnitudes; MAX is their maximum; MAE is the
    per-axis mean absolute error.
    """
    if series.matched == 0:
        raise NumericalFailureError("no matched epochs: cannot compute metrics")
    mags = series.magnitudes
    errs = series.errors
    return MetricsRow(
        algorithm=algorithm,
        rmse=float(np.sqrt(np.mean(mags**2))),
        std=float(np.std(mags)),
        max_error=float(np.max(mags)),
        mean_error=float(np.mean(mags)),
        mae_axes=tuple(float(v) for v in np.mean(np.abs(errs), axis=0)),
        rmse_axes=tuple(float(v) for v in np.sqrt(np.mean(errs**2, axis=0))),
        mean_cov_trace=float(np.mean(series.cov_traces)),
        matched_epochs=series.matched,
        excluded_epochs=series.excluded,
    )


def compute_cdf(magnitudes, thresholds):
    """Fraction of error magnitudes at or below each threshold.

    Thresholds must be sorted ascending. The result is monotone
    non-decreasing and right-continuous: a sample exactly at a threshold
    counts as within it.
    """
    thresholds = [float(v) for v in thresholds]
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    mags = np.sort(np.asarray(magnitudes, dtype=float))
    n = len(mags)
    if n == 0:
        raise NumericalFailureError("no magnitudes: cannot compute a CDF")
    return [float(np.searchsorted(mags, thr, side="right")) / n for thr in thresholds]


def composite_objective(row: MetricsRow, k1: float, k2: float) -> float:
    """Weighted accuracy-plus-uncertainty diagnostic.

    k1 scales the mean Euclidean error, k2 the mean reported covariance
    trace. Diagnostic only; nothing in the pipeline optimizes it.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError(f"weights must be non-negative, got k1={k1}, k2={k2}")
    return k1 * row.mean_error + k2 * row.mean_cov_trace


@dataclass(frozen=True)
class BoxplotSummary:
    algorithm: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    outliers: tuple = field(default=())


def boxplot_summary(magnitudes, algorithm: str = "") -> BoxplotSummary:
    """Five-number summary with Tukey outliers (beyond 1.5 IQR)."""
    mags = np.asarray(magnitudes, dtype=float)
    if len(mags) == 0:
        raise NumericalFailureError("no magnitudes: cannot summarize")
    q1, med, q3 = (float(v) for v in np.percentile(mags, [25, 50, 75]))  # linear interpolation
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = tuple(float(v) for v in np.sort(mags[(mags < lo) | (mags > hi)]))
    return BoxplotSummary(
        algorithm=algorithm,
        minimum=float(mags.min()),
        q1=q1,
        median=med,
        q3=q3,
        maximum=float(mags.max()),
        outliers=outliers,
    )


def write_metrics_csv(path, rows, include_reference: bool = False) -> None:
    """Write metrics.csv. With include_reference, append the hardware
    reference footer row (mae and epoch columns left blank)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.csv_record())
        if include_reference:
            writer.writerow(
                {
                    "algorithm": REFERENCE_LABEL,
                    "rmse": repr(REFERENCE_RMSE_M),
                    "std": repr(REFERENCE_STD_M),
                    "max": repr(REFERENCE_MAX_M),
                    "mae_x": "",
                    "mae_y": "",
                    "mae_z": "",
                    "matched_epochs": "",
                }
            )


def write_cdf_csv(path, thresholds, fractions_by_algorithm: dict) -> None:
    """Write cdf.csv: threshold column, then one column per algorithm."""
    algos = list(fractions_by_algorithm)
    for algo in algos:
        if len(fractions_by_algorithm[algo]) != len(thresholds):
            raise ValueError(f"{algo}: fraction count does not match threshold count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", *algos])
        for i, thr in enumerate(thresholds):
            writer.writerow([repr(float(thr)), *(repr(fractions_by_algorithm[a][i]) for a in algos)])


def write_boxplot_csv(path, summaries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOXPLOT_COLUMNS)
        for s in summaries:
            writer.writerow(
                [
                    s.algorithm,
                    repr(s.minimum),
                    repr(s.q1),
                    repr(s.median),
                    repr(s.q3),
                    repr(s.maximum),
                    str(len(s.outliers)),
                ]
            )
