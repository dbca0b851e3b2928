"""Multi-sensor localization stack for wall-climbing robots.

Subpackages:
    core     shared types, geodetic/ENU conversion
    sim      synthetic climbing scenarios with configurable sensor errors
    solvers  classical per-sensor estimators (UWB geometry, barometer, GPS/INS-EKF)
    nnet     minimal dense-network engine (forward, backprop, SGD)
    models   windowed FCNN inference models for UWB and barometer
    fusion   per-axis attention fusion with adaptive covariance and a UKF
    metrics  trajectory error metrics (RMSE/STD/MAX/MAE, CDF, boxplots)
    cli      file-based pipeline: simulate, train, run, report
"""

__version__ = "0.1.0"
