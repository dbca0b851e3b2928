"""Trajectory accuracy metrics and plot-ready CSV reports.

`match_series` pairs estimate epochs with truth epochs in one array pass.
`compute_metrics` reduces the matched errors estimate - truth to one report
row: the dict `report` writes into report.json, of which metrics.csv and
the printed table are projections. Every summary statistic is computed
from Euclidean per-epoch magnitudes, not from axis-averaged errors, so RMSE
here equals sqrt(sum of per-axis mean squared errors).

CSV column orders are part of the public contract:
    metrics.csv  algorithm, rmse, std, max, mae_x, mae_y, mae_z, matched_epochs
    cdf.csv      threshold, then one fraction column per report row
    boxplot.csv  algorithm, min, q1, median, q3, max, n_outliers
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import NumericalFailureError

# Field accuracy of the fused stack measured on the original climbing-robot
# hardware (RMSE / STD / MAX, meters). Shown in reports for context only;
# simulated runs are never asserted against these.
REFERENCE_RMSE_M = 0.48
REFERENCE_STD_M = 0.43
REFERENCE_MAX_M = 1.50
REFERENCE_LABEL = "amfa [hardware reference]"

# error magnitudes (m) at which `report` tabulates each CDF
CDF_THRESHOLDS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)
METRICS_COLUMNS = ("algorithm", "rmse", "std", "max", "mae_x", "mae_y", "mae_z", "matched_epochs")
BOXPLOT_COLUMNS = ("algorithm", "min", "q1", "median", "q3", "max", "n_outliers")


def _default_tolerance(truth_t: np.ndarray) -> float:
    # half the truth epoch spacing; a lone truth sample only matches exactly
    if len(truth_t) < 2:
        return 1e-9
    return float(np.median(np.diff(truth_t))) / 2.0


def match_series(est_t, truth_t, tolerance=None):
    """-> (est_rows, truth_rows, excluded): the matched epoch pairs as index
    arrays, and the number of estimate epochs left unmatched.

    Each estimate epoch takes its nearest truth time, the earlier one on a
    tie; pairs further apart than `tolerance` (default: half the median
    truth spacing) are excluded. Matching is one-to-one: among estimates
    that land on the same truth sample the smallest gap wins, the earliest
    estimate on a tie, and the others are excluded. Rows come back in
    estimate order; truth rows index `truth_t` as given, sorted or not.
    """
    est_t = np.asarray(est_t, dtype=float)
    truth_t = np.asarray(truth_t, dtype=float)
    if len(truth_t) == 0:
        raise NumericalFailureError("no truth epochs to match against")

    order = np.argsort(truth_t, kind="stable")
    sorted_t = truth_t[order]
    if tolerance is None:
        tolerance = _default_tolerance(sorted_t)
    # Both neighbours come from the one insertion point: deriving `left` from
    # an already clipped `right` would, past the last truth time, compare two
    # duplicate last times and take the earlier instead of the last one.
    after = np.searchsorted(sorted_t, est_t)
    left = np.maximum(after - 1, 0)
    right = np.minimum(after, len(sorted_t) - 1)
    gap_left = np.abs(sorted_t[left] - est_t)
    gap_right = np.abs(sorted_t[right] - est_t)
    take_right = gap_right < gap_left
    nearest = np.where(take_right, right, left)
    gap = np.where(take_right, gap_right, gap_left)

    within = np.flatnonzero(gap <= tolerance)
    # claimants grouped by truth sample, closest (then earliest) first
    ranked = within[np.lexsort((within, gap[within], nearest[within]))]
    _, first = np.unique(nearest[ranked], return_index=True)
    est_rows = np.sort(ranked[first])
    return est_rows, order[nearest[est_rows]], len(est_t) - len(est_rows)


def compute_metrics(errors, sigmas, algorithm: str, excluded: int) -> dict:
    """One report row from matched errors (n, 3), estimate - truth, and the
    estimate's per-axis sigmas (n, 3) at the same epochs.

    RMSE is sqrt(mean squared Euclidean magnitude); STD is the population
    standard deviation of the magnitudes; MAX is their maximum; MAE is the
    per-axis mean absolute error. `composite` is the accuracy-plus-uncertainty
    diagnostic mean error + mean reported covariance trace; nothing in the
    pipeline optimizes it.
    """
    errors = np.asarray(errors, dtype=float)
    if len(errors) == 0:
        raise NumericalFailureError("no matched epochs: cannot compute metrics")
    sigmas = np.asarray(sigmas, dtype=float)
    mags = np.linalg.norm(errors, axis=1)
    mean_error = float(np.mean(mags))
    return {
        "algorithm": algorithm,
        "rmse": float(np.sqrt(np.mean(mags**2))),
        "std": float(np.std(mags)),
        "max": float(np.max(mags)),
        "mean_error": mean_error,
        "mae": [float(v) for v in np.mean(np.abs(errors), axis=0)],
        "rmse_axes": [float(v) for v in np.sqrt(np.mean(errors**2, axis=0))],
        "composite": mean_error + float(np.mean(np.sum(sigmas * sigmas, axis=1))),
        "matched_epochs": len(errors),
        "excluded_epochs": int(excluded),
    }


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


def boxplot_summary(magnitudes) -> tuple:
    """(min, q1, median, q3, max, outliers): the five-number summary with
    the sorted Tukey outliers (beyond 1.5 IQR)."""
    mags = np.asarray(magnitudes, dtype=float)
    if len(mags) == 0:
        raise NumericalFailureError("no magnitudes: cannot summarize")
    q1, med, q3 = (float(v) for v in np.percentile(mags, [25, 50, 75]))  # linear interpolation
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = tuple(float(v) for v in np.sort(mags[(mags < lo) | (mags > hi)]))
    return float(mags.min()), q1, med, q3, float(mags.max()), outliers


def write_metrics_csv(path, rows) -> None:
    """Write metrics.csv: one line per report row, then the hardware reference
    footer (mae and epoch columns left blank). csv writes a float as its
    repr, so every number keeps its report.json digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["algorithm"], row["rmse"], row["std"], row["max"], *row["mae"], row["matched_epochs"]]
            )
        writer.writerow([REFERENCE_LABEL, REFERENCE_RMSE_M, REFERENCE_STD_M, REFERENCE_MAX_M, "", "", "", ""])


def write_cdf_csv(path, thresholds, rows, fractions) -> None:
    """Write cdf.csv: threshold column, then one column per report row and
    its `compute_cdf` fractions."""
    for row, column in zip(rows, fractions, strict=True):
        if len(column) != len(thresholds):
            raise ValueError(f"{row['algorithm']}: fraction count does not match threshold count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", *(row["algorithm"] for row in rows)])
        for i, thr in enumerate(thresholds):
            writer.writerow([repr(float(thr)), *(repr(column[i]) for column in fractions)])


def write_boxplot_csv(path, rows, summaries) -> None:
    """Write boxplot.csv: one line per report row and its `boxplot_summary`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOXPLOT_COLUMNS)
        for row, (*five, outliers) in zip(rows, summaries, strict=True):
            writer.writerow([row["algorithm"], *five, len(outliers)])
