"""The planning layer: declare *what* to run before running anything.

The paper's evaluation is a 6-benchmark × 28-configuration × multi-seed
matrix (Sec. 6.1).  Consumers (figures, tables, the user study,
benches, the CLI) declare their demands up front as :class:`CellSpec`
values and collect them into a :class:`Plan`; once it has run, they
read its records back through
:meth:`~repro.experiments.runner.Runner.records_for`:

* a **CellSpec** is the complete, plain-data identity of one cell —
  benchmark, platform, resolution, regulator spec, seed, duration and
  warmup.  It is hashable, picklable (workers receive it verbatim),
  and content-addressed: :attr:`CellSpec.run_id` is the ledger's
  ``run_id_for`` hash over the same canonical payload the run record
  carries, so the plan, the result store, and the run ledger all agree
  on identity.
* a **Plan** is an ordered, deduplicated collection of specs.  Cells
  are independent by construction — no spec depends on another — so an
  executor (:mod:`repro.experiments.executor`) may run them serially,
  in a process pool, or resume a half-finished sweep, without ordering
  hazards.

Demand builders for the standard sweeps live here
(:func:`matrix_demands`, :func:`bench_demands`, :func:`group_demands`);
figure-, table- and study-shaped demands live next to their renderers
(:func:`repro.experiments.figures.figure_demands`,
:func:`repro.experiments.tables.table2_demands`,
:meth:`repro.experiments.userstudy.UserStudy.demands`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.experiments.config import (
    ExperimentConfig,
    PlatformRes,
    platform_res_combos,
    regulator_specs_for,
)
from repro.faults.spec import FaultPlan, FaultSpec, fault_from_dict
from repro.obs.runmeta import run_id_for
from repro.workloads import BENCHMARKS, PLATFORMS, Resolution

__all__ = [
    "CellSpec",
    "Plan",
    "bench_demands",
    "group_demands",
    "matrix_demands",
]

#: Default measurement horizon, matching :class:`~repro.experiments.runner.Runner`.
DEFAULT_DURATION_MS = 20000.0
DEFAULT_WARMUP_MS = 3000.0


@dataclass(frozen=True)
class CellSpec:
    """Plain-data identity of one (benchmark × configuration × seed) cell."""

    benchmark: str
    platform: str
    resolution: str
    regulator: str
    seed: int
    duration_ms: float = DEFAULT_DURATION_MS
    warmup_ms: float = DEFAULT_WARMUP_MS
    #: Declarative fault injection for this cell (:mod:`repro.faults`).
    #: Part of the content address whenever non-empty.
    faults: Tuple[FaultSpec, ...] = ()
    #: Chaos-sweep annotation: the catalog name the faults came from
    #: ("" outside chaos sweeps).  Presentation only — the specs
    #: themselves identify the cell.
    fault_class: str = ""  # analyzer: hash-exempt -- catalog label; the fault specs themselves are hashed

    @classmethod
    def from_config(
        cls,
        benchmark: str,
        config: ExperimentConfig,
        seed: int,
        duration_ms: float = DEFAULT_DURATION_MS,
        warmup_ms: float = DEFAULT_WARMUP_MS,
        faults: Sequence[FaultSpec] = (),
        fault_class: str = "",
    ) -> "CellSpec":
        """Build a spec from an enumerated :class:`ExperimentConfig`."""
        combo = config.platform_res
        return cls(
            benchmark=benchmark,
            platform=combo.platform.name,
            resolution=combo.resolution.value,
            regulator=config.regulator_spec,
            seed=int(seed),
            duration_ms=float(duration_ms),
            warmup_ms=float(warmup_ms),
            faults=tuple(faults),
            fault_class=fault_class,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Wire form of this spec (JSON-safe), for the service protocol.

        Round-trips exactly through :meth:`from_dict`: every identity
        field is carried verbatim, faults via their own discriminated
        ``to_dict`` form — so a spec serialized by a client yields the
        same :attr:`run_id` on the server.
        """
        payload: Dict[str, Any] = {
            "benchmark": self.benchmark,
            "platform": self.platform,
            "resolution": self.resolution,
            "regulator": self.regulator,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "warmup_ms": self.warmup_ms,
        }
        if self.faults:
            payload["faults"] = [fault.to_dict() for fault in self.faults]
        if self.fault_class:
            payload["fault_class"] = self.fault_class
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellSpec":
        """Rebuild a spec from its :meth:`to_dict` wire form."""
        return cls(
            benchmark=str(payload["benchmark"]),
            platform=str(payload["platform"]),
            resolution=str(payload["resolution"]),
            regulator=str(payload["regulator"]),
            seed=int(payload["seed"]),
            duration_ms=float(payload.get("duration_ms", DEFAULT_DURATION_MS)),
            warmup_ms=float(payload.get("warmup_ms", DEFAULT_WARMUP_MS)),
            faults=tuple(
                fault_from_dict(fault) for fault in payload.get("faults", [])
            ),
            fault_class=str(payload.get("fault_class", "")),
        )

    def config_payload(self) -> Dict[str, Any]:
        """The canonical ledger config payload (everything but the seed).

        This is byte-for-byte the payload :func:`~repro.obs.runmeta.build_record`
        hashes, so a spec's :attr:`run_id` equals its run record's
        ``run_id`` — the plan, result store, and ledger share one
        address space.  The ``faults`` key appears only when the cell
        carries faults, so fault-free cells keep the run_ids they have
        always had (checked-in baselines stay resolvable).
        """
        payload: Dict[str, Any] = {
            "benchmark": self.benchmark,
            "platform": self.platform,
            "resolution": self.resolution,
            "regulator": self.regulator,
            "duration_ms": self.duration_ms,
            "warmup_ms": self.warmup_ms,
        }
        if self.faults:
            payload["faults"] = [fault.to_dict() for fault in self.faults]
        return payload

    def fault_plan(self) -> Optional[FaultPlan]:
        """This cell's fault plan, or ``None`` for a clean cell."""
        return FaultPlan(self.faults) if self.faults else None

    @cached_property
    def run_id(self) -> str:
        """Content address of this cell (see :func:`~repro.obs.runmeta.run_id_for`).

        Computed on first access and kept in the instance ``__dict__``:
        the spec is frozen, so its address never changes.
        """
        return run_id_for(self.config_payload(), self.seed)

    def experiment_config(self) -> ExperimentConfig:
        """Reconstruct the matrix-enumeration view of this spec."""
        combo = PlatformRes(PLATFORMS[self.platform], Resolution(self.resolution))
        return ExperimentConfig(combo, self.regulator)

    @property
    def label(self) -> str:
        """Human-readable cell name, e.g. ``IM/Priv720p/ODR60``.

        Fault-carrying cells gain a ``+<fault_class>`` suffix so ledger
        listings distinguish them from their clean twins.
        """
        base = f"{self.benchmark}/{self.experiment_config().label}"
        if self.fault_class:
            return f"{base}+{self.fault_class}"
        if self.faults:
            return f"{base}+faults"
        return base


class Plan:
    """An ordered, deduplicated set of cells to execute.

    Duplicate demands (the common case — most figures share cells) are
    collapsed by ``run_id`` on insertion; iteration preserves first-
    demand order, so executors and ledger appends are deterministic.
    """

    def __init__(self, specs: Iterable[CellSpec] = ()) -> None:
        self._specs: Dict[str, CellSpec] = {}
        self.extend(specs)

    def add(self, spec: CellSpec) -> bool:
        """Demand one cell; returns ``False`` if it was already planned."""
        run_id = spec.run_id
        if run_id in self._specs:
            return False
        self._specs[run_id] = spec
        return True

    def extend(self, specs: Iterable[CellSpec]) -> "Plan":
        for spec in specs:
            self.add(spec)
        return self

    def merge(self, other: "Plan") -> "Plan":
        """Fold another plan's demands into this one (deduplicated)."""
        return self.extend(other)

    @property
    def specs(self) -> Tuple[CellSpec, ...]:
        return tuple(self._specs.values())

    @property
    def run_ids(self) -> Tuple[str, ...]:
        return tuple(self._specs.keys())

    def __iter__(self) -> Iterator[CellSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, CellSpec):
            return item.run_id in self._specs
        return isinstance(item, str) and item in self._specs

    def __repr__(self) -> str:
        return f"Plan({len(self)} cells)"


def group_demands(
    combo: PlatformRes,
    specs: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1,),
    duration_ms: float = DEFAULT_DURATION_MS,
    warmup_ms: float = DEFAULT_WARMUP_MS,
) -> Plan:
    """One platform-resolution group across regulator specs × benchmarks × seeds."""
    names = list(benchmarks) if benchmarks is not None else sorted(BENCHMARKS)
    plan = Plan()
    for spec in specs:
        for bench in names:
            for seed in seeds:
                plan.add(
                    CellSpec.from_config(
                        bench,
                        ExperimentConfig(combo, spec),
                        seed=seed,
                        duration_ms=duration_ms,
                        warmup_ms=warmup_ms,
                    )
                )
    return plan


def matrix_demands(
    benchmarks: Optional[Sequence[str]] = None,
    groups: Optional[Sequence[str]] = None,
    include_ablation: bool = False,
    seeds: Sequence[int] = (1,),
    duration_ms: float = DEFAULT_DURATION_MS,
    warmup_ms: float = DEFAULT_WARMUP_MS,
) -> Plan:
    """The paper's full 28-configuration matrix (or a filtered slice).

    ``groups`` filters platform-resolution groups by label (e.g.
    ``["Priv720p", "GCE720p"]``); ``benchmarks`` restricts the
    benchmark set — together they define the "reduced matrix" smoke
    sweeps CI runs.
    """
    wanted = set(groups) if groups is not None else None
    plan = Plan()
    for combo in platform_res_combos():
        if wanted is not None and combo.label not in wanted:
            continue
        plan.merge(
            group_demands(
                combo,
                regulator_specs_for(combo, include_ablation=include_ablation),
                benchmarks=benchmarks,
                seeds=seeds,
                duration_ms=duration_ms,
                warmup_ms=warmup_ms,
            )
        )
    return plan


def bench_demands(
    benchmarks: Sequence[str],
    regulators: Sequence[str],
    seeds: Sequence[int],
    platform: str = "private",
    resolution: str = "720p",
    duration_ms: float = DEFAULT_DURATION_MS,
    warmup_ms: float = DEFAULT_WARMUP_MS,
) -> Plan:
    """The ``odr-sim bench`` smoke matrix: benchmarks × regulators × seeds."""
    plan = Plan()
    for bench in benchmarks:
        for spec in regulators:
            for seed in seeds:
                plan.add(
                    CellSpec(
                        benchmark=bench,
                        platform=platform,
                        resolution=resolution,
                        regulator=spec,
                        seed=int(seed),
                        duration_ms=float(duration_ms),
                        warmup_ms=float(warmup_ms),
                    )
                )
    return plan
