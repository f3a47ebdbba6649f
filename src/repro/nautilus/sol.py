"""Speed-of-light feasibility checks.

Light in single-mode fiber travels at roughly two thirds of c, giving the
canonical ~0.01 ms per km round-trip bound that Nautilus uses to reject
geolocation candidates and infeasible cable assignments.
"""

from __future__ import annotations

SPEED_OF_LIGHT_KM_PER_MS = 299.792458
FIBER_REFRACTIVE_FACTOR = 0.66
FIBER_SPEED_KM_PER_MS = SPEED_OF_LIGHT_KM_PER_MS * FIBER_REFRACTIVE_FACTOR


def min_rtt_ms(distance_km: float) -> float:
    """Lower bound on round-trip time over ``distance_km`` of fiber."""
    if distance_km < 0:
        raise ValueError("distance cannot be negative")
    return 2.0 * distance_km / FIBER_SPEED_KM_PER_MS
