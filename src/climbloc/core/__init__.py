from .types import (
    GRAVITY,
    AnchorPose,
    BaroSample,
    GpsFix,
    GroundTruthPoint,
    ImuSample,
    Rotation,
    UwbMeasurement,
    Vec3Enu,
    skew,
)
from .geodesy import GeodeticPoint, ecef_to_geodetic, enu_to_geodetic, geodetic_to_ecef, geodetic_to_enu

__all__ = [
    "GRAVITY",
    "AnchorPose",
    "BaroSample",
    "GeodeticPoint",
    "GpsFix",
    "GroundTruthPoint",
    "ImuSample",
    "Rotation",
    "UwbMeasurement",
    "Vec3Enu",
    "ecef_to_geodetic",
    "enu_to_geodetic",
    "geodetic_to_ecef",
    "geodetic_to_enu",
    "skew",
]
