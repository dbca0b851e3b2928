"""Classical per-sensor position solvers and the GPS/INS error-state filter."""

from .baro import BaroReference, baro_altitude, baro_inverse
from .ins import GRAVITY_ENU, GpsInsEkf, InsErrorModel, InsState
from .types import PoseEstimate
from .uwb import UwbSigmaModel, uwb_geometric_fixes, uwb_geometric_solve, uwb_inverse, uwb_local_direction

__all__ = [
    "BaroReference",
    "baro_altitude",
    "baro_inverse",
    "GRAVITY_ENU",
    "GpsInsEkf",
    "InsErrorModel",
    "InsState",
    "PoseEstimate",
    "UwbSigmaModel",
    "uwb_geometric_fixes",
    "uwb_geometric_solve",
    "uwb_inverse",
    "uwb_local_direction",
]
