"""Telemetry stays out of the simulation.

Spans and metrics are read from the finished run (``Telemetry.read_run``
and ``Telemetry.read_sessions``), called by the two hosts that own a
telemetry object: ``pipeline/system.py`` and ``multitenant/server.py``.
No other simulation module may reach for a ``telemetry`` attribute, so
an in-loop hook cannot grow back unnoticed.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
SIM_PACKAGES = (
    "core", "faults", "hardware", "metrics", "multitenant", "pipeline",
    "regulators", "simcore", "workloads",
)
HOSTS = {"pipeline/system.py", "multitenant/server.py"}


def telemetry_attributes(path):
    """``(line, col)`` of every ``.telemetry`` attribute in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.col_offset)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "telemetry"
    ]


def sim_modules():
    for package in SIM_PACKAGES:
        for path in sorted((PACKAGE / package).rglob("*.py")):
            name = path.relative_to(PACKAGE).as_posix()
            if name not in HOSTS:
                yield name


def test_no_sim_module_reads_a_telemetry_attribute():
    offenders = {}
    for name in sim_modules():
        found = telemetry_attributes(PACKAGE / name)
        if found:
            offenders[name] = found
    assert offenders == {}


def test_guard_sees_an_attribute_read(tmp_path):
    hook = tmp_path / "hook.py"
    hook.write_text("if system.telemetry is not None:\n    pass\n")
    assert telemetry_attributes(hook) == [(1, 3)]
