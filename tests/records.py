"""Test helper: run a one-cell plan and read the cell's record back."""

from repro.experiments import ExperimentConfig, Plan, Runner
from repro.experiments.record import ExperimentRecord


def planned_record(
    runner: Runner, benchmark: str, config: ExperimentConfig, seed=None
) -> ExperimentRecord:
    """Plan one cell, run it (or recall it) through ``runner``, read it back."""
    plan = Plan([runner.spec_for(benchmark, config, seed)])
    runner.run_plan(plan)
    return runner.records_for(plan).get(benchmark, config, seed)
