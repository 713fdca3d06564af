"""Build regulators from the paper's configuration labels.

The evaluation names configurations ``NoReg``, ``Int30/60/Max``,
``RVS30/60/Max``, ``ODR30/60/Max``, and the ablation ``ODRMax-noPri``
(Table 2).  :func:`make_regulator` parses those labels (plus the
additional ``-noAccel`` ablation this reproduction adds) so experiment
code and the CLI can specify configurations exactly as the paper
writes them.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.regulators.base import Regulator
from repro.regulators.interval import IntervalMaxRegulator, IntervalRegulator
from repro.regulators.noreg import NoRegulation
from repro.regulators.rvs import RemoteVsync

__all__ = ["make_regulator"]

#: Display refresh used by RVS when maximizing FPS (a current high-end
#: display, per Sec. 4.1's RVSMax analysis).
RVS_MAX_REFRESH_HZ = 240.0

_SPEC_RE = re.compile(
    r"^(?P<family>NoReg|Int|RVS|ODR)(?P<goal>\d+|Max)?(?P<flags>(?:-no\w+)*)$",
    re.IGNORECASE,
)


def make_regulator(spec: str) -> Regulator:
    """Create a regulator from a paper-style label.

    Examples: ``NoReg``, ``Int60``, ``IntMax``, ``RVS30``, ``RVSMax``,
    ``ODR60``, ``ODRMax``, ``ODRMax-noPri``, ``ODR60-noAccel``.
    """
    match = _SPEC_RE.match(spec.strip())
    if not match:
        raise ValueError(f"unrecognized regulator spec {spec!r}")
    family = match.group("family").lower()
    goal = (match.group("goal") or "").lower()
    flags = {f.lower() for f in match.group("flags").split("-") if f}

    target: Optional[float]
    if goal in ("", "max"):
        target = None
    else:
        target = float(goal)

    if family == "noreg":
        if goal not in ("", "max") or flags:
            raise ValueError("NoReg takes no goal or flags")
        return NoRegulation()

    if family == "int":
        if flags:
            raise ValueError("Int regulators take no flags")
        if target is None:
            return IntervalMaxRegulator()
        return IntervalRegulator(target)

    if family == "rvs":
        if flags:
            raise ValueError("RVS regulators take no flags")
        if target is None:
            return RemoteVsync(refresh_hz=RVS_MAX_REFRESH_HZ)
        # Fixed-target RVS runs against an ordinary 60 Hz display.
        return RemoteVsync(refresh_hz=60.0, fps_target=target)

    # family == "odr" — imported here to keep regulators importable
    # without the core package (and vice versa) during partial builds.
    from repro.core import OnDemandRendering

    unknown = flags - {"nopri", "noaccel"}
    if unknown:
        raise ValueError(f"unknown ODR flags: {sorted(unknown)}")
    return OnDemandRendering(
        target_fps=target,
        priority_frames="nopri" not in flags,
        accelerate="noaccel" not in flags,
    )
