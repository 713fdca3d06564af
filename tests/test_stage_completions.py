"""The busy-interval trace is the one store of stage completion times.

``FpsCounter`` counts render, encode, transmit and decode completions
from the ends of the run's ``IntervalTrace`` intervals.  That equals the
frames' own completion stamps only if every completion ends exactly one
stored interval: the trace drops zero-length intervals, so each must have
positive length.  These tests check both over the 17 pinned cells, the
four consolidated runs, one cell of each fault class in the benchmark's
sweep-cold chaos slice, and a VSync client.
"""

from collections import Counter

import pytest

from repro.pipeline.display import VsyncDisplay
from tests.test_schedule_fingerprints import (
    _PINNED_RUNS,
    CONSOLIDATED,
    _system,
    _traced_server,
)

#: Stage -> the ``Frame`` stamp of its completion.
STAMPS = {
    "render": "t_render_end",
    "copy": "t_copy_end",
    "encode": "t_encode_end",
    "transmit": "t_send_end",
}

#: The sweep-cold chaos slice's fault classes, each on IM ODR60, seed 7,
#: 2 s after 0.5 s warm-up.
CHAOS_FAULTS = ("stall_storm", "net_outage", "gpu_preempt")


def _stamps(frames, attribute):
    return Counter(
        getattr(f, attribute) for f in frames if getattr(f, attribute) is not None
    )


def check_completions(system, decode_stamp="t_displayed"):
    """Every stored interval has positive length, and the counter's
    completions are the frames' stamps as a multiset, so no completion's
    interval was dropped as zero-length either."""
    trace, counter, frames = system.trace, system.counter, system.app.frames
    for stage in trace.stages():
        assert all(end > start for start, end in trace.intervals(stage)), stage
    stamps = dict(STAMPS, decode=decode_stamp) if decode_stamp else STAMPS
    for stage, attribute in stamps.items():
        times = counter.times(stage)
        assert times, stage
        assert Counter(times) == _stamps(frames, attribute), stage


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_pinned_cell_completions_come_from_the_trace(name):
    system = _system(*_PINNED_RUNS[name])
    system.run()
    check_completions(system)


@pytest.mark.parametrize("fault_class", CHAOS_FAULTS)
def test_fault_cell_completions_come_from_the_trace(fault_class):
    system = _system({"regulator": "ODR60"}, 7, 2000.0, fault_class)
    system.run()
    assert system.faults is not None and system.faults.windows
    check_completions(system)


@pytest.mark.parametrize("name", sorted(CONSOLIDATED))
def test_consolidated_session_completions_come_from_the_trace(name):
    sessions, regulator, _ = CONSOLIDATED[name]
    _, results, _ = _traced_server(sessions, regulator)
    assert len(results) == sessions
    for result in results:
        check_completions(result.system)


def test_display_model_cell_completions_come_from_the_trace():
    system = _system({"regulator": "NoReg"}, 7, 3000.0, None, display_model=VsyncDisplay(60))
    system.run()
    # A display model stamps the presentation, not the decode, on the
    # frame; every decoded frame is either presented or display-dropped.
    check_completions(system, decode_stamp=None)
    frames = system.app.frames
    display_drops = [f for f in frames if f.dropped is None and f.t_dropped is not None]
    assert display_drops
    assert system.counter.count("decode") == len(system.client.displayed) + len(display_drops)
    presented = Counter(system.counter.times("display"))
    assert presented and not presented - _stamps(frames, "t_displayed")

