"""FPS regulation policies.

This package holds the *baseline* regulators the paper compares ODR
against (Sec. 4):

* :class:`NoRegulation` — free-running rendering (``NoReg``);
* :class:`IntervalRegulator` — software interval-based regulation with a
  fixed FPS target (``Int30``/``Int60``);
* :class:`IntervalMaxRegulator` — the adaptive match-the-client variant
  (``IntMax``), including its documented inability to re-accelerate;
* :class:`RemoteVsync` — Remote VSync (``RVS30/60/Max``), which extends
  display VSync across the network using decode-to-vblank feedback.

ODR itself lives in :mod:`repro.core`.  :func:`make_regulator` builds
any of them (including ODR) from a spec string like ``"NoReg"``,
``"Int60"``, ``"RVSMax"``, ``"ODR30"``, or ``"ODRMax-noPri"``.
"""

from repro.regulators.base import Regulator
from repro.regulators.factory import make_regulator
from repro.regulators.interval import IntervalMaxRegulator, IntervalRegulator
from repro.regulators.noreg import NoRegulation
from repro.regulators.rvs import RemoteVsync

__all__ = [
    "IntervalMaxRegulator",
    "IntervalRegulator",
    "NoRegulation",
    "Regulator",
    "RemoteVsync",
    "make_regulator",
]
