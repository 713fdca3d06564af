"""Time-varying network conditions.

The paper fixed its network ("We did not alter or control network
connections"); a production deployment cannot.  This extension adds
bandwidth *schedules* — functions of simulation time returning a
multiplicative factor on the platform's effective bandwidth — so
robustness under congestion events and outages can be studied.

Builders:

:func:`dips`          — periodic sharp congestion events (a fractional
                        capacity floor for a fixed duration);
:func:`compose`       — multiply schedules together.

The schedule is sampled at each frame's serialization start; a dip that
begins mid-frame affects the next frame (first-order model).
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["BandwidthSchedule", "compose", "dips"]

#: A bandwidth schedule maps simulation time (ms) to a capacity factor.
BandwidthSchedule = Callable[[float], float]


def dips(
    period_ms: float,
    dip_duration_ms: float,
    dip_factor: float,
    first_dip_at_ms: float = 0.0,
) -> BandwidthSchedule:
    """Sharp periodic congestion events.

    Every ``period_ms``, capacity drops to ``dip_factor`` of nominal for
    ``dip_duration_ms`` (e.g. a neighbour's backup job saturating the
    uplink for two seconds every thirty).
    """
    if period_ms <= 0 or dip_duration_ms <= 0:
        raise ValueError("period and duration must be positive")
    if dip_duration_ms > period_ms:
        raise ValueError("dip cannot exceed its period")
    if not 0 < dip_factor <= 1:
        raise ValueError("dip factor must be in (0, 1]")

    def schedule(t: float) -> float:
        phase = (t - first_dip_at_ms) % period_ms
        if 0 <= t - first_dip_at_ms and phase < dip_duration_ms:
            return dip_factor
        return 1.0

    return schedule


def compose(schedules: Sequence[BandwidthSchedule]) -> BandwidthSchedule:
    """Multiply several schedules (e.g. periodic dips × a fault window)."""
    if not schedules:
        raise ValueError("need at least one schedule")

    def schedule(t: float) -> float:
        factor = 1.0
        for s in schedules:
            factor *= s(t)
        return factor

    return schedule
