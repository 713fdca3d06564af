"""The run directory's append-only logs share one torn-line rule.

Each case writes rows through a log's public writer, appends the
fragment a writer killed mid-row leaves behind, writes one more row as
a fresh writer (a restarted process), and reads back: every complete
row survives and the fragment is skipped.
"""

import pytest

from repro.obs import RunLedger
from repro.obs import sweep as sweepbus
from repro.obs.sweep import SweepEventBus, events_path_for, read_events
from repro.service import JobJournal, journal_path_for

FRAGMENT = '{"schema": 1, "kind": "torn mid-ro'


class LedgerLog:
    def __init__(self, root):
        self.root = root
        self.path = RunLedger(root).path

    def write(self, tag):
        RunLedger(self.root).append({"run_id": tag, "metrics": {"tag": tag}})

    def read(self, tags):
        return [record["run_id"] for record in RunLedger(self.root).records()]


class JournalLog:
    def __init__(self, root):
        self.path = journal_path_for(root)

    def write(self, tag):
        JobJournal(self.path).record_submitted(
            tag, {"cells": []}, label="", token=tag, cells=0
        )

    def read(self, tags):
        return [entry.job_id for entry in JobJournal(self.path).pending()]


class EventLog:
    def __init__(self, root):
        self.path = events_path_for(root)

    def write(self, tag):
        with SweepEventBus(path=self.path, sweep_id=tag) as bus:
            bus.emit(sweepbus.SWEEP_BEGIN, cells=0, executor="serial", workers=1)

    def read(self, tags):
        # The log keeps one sweep per writer; read each one back.
        return [
            event.sweep_id
            for tag in tags
            for event in read_events(self.path, sweep_id=tag)
        ]


@pytest.mark.parametrize("log_class", [LedgerLog, JournalLog, EventLog])
def test_torn_tail_loses_no_complete_row(tmp_path, log_class):
    log = log_class(tmp_path / "runs")
    tags = ["row-a", "row-b", "row-c"]
    for tag in tags[:2]:
        log.write(tag)
    with open(log.path, "a", encoding="utf-8") as handle:
        handle.write(FRAGMENT)  # the writer died mid-row
    assert log.read(tags[:2]) == tags[:2]
    log.write(tags[2])
    assert log.read(tags) == tags
    with open(log.path, "rb") as handle:
        lines = handle.read().split(b"\n")
    assert lines[-1] == b"" and FRAGMENT.encode("utf-8") in lines
