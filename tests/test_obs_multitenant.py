"""Telemetry under multi-tenant runs: isolation and fidelity.

Two guarantees when several sessions share one server and one
telemetry object:

* per-session spans and metric series never collide — every span and
  series carries its ``s<index>`` label and stays separately queryable;
* observation never perturbs: a telemetry-on run is numerically
  identical to the same seed run telemetry-off.

A run without telemetry executes no telemetry code at all; the engine's
probe branches, the only observability left on its path, are guarded
in ``test_obs_benchmark``.
"""

import pytest

from repro.multitenant import SharedServer
from repro.obs import Telemetry
from repro.regulators import make_regulator
from repro.workloads import PRIVATE_CLOUD, Resolution


def make_server(n=2, telemetry=None, duration=6000.0, seed=1):
    return SharedServer(
        benchmarks=["IM", "RE", "STK", "ITP"][:n],
        platform=PRIVATE_CLOUD,
        resolution=Resolution.R720P,
        regulator_factory=lambda i: make_regulator("ODR60"),
        seed=seed,
        duration_ms=duration,
        warmup_ms=1000.0,
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def shared_run():
    telemetry = Telemetry(engine_probe=True)
    server = make_server(telemetry=telemetry)
    results = server.run()
    return server, telemetry, results


class TestSessionIsolation:
    def test_every_session_gets_its_own_span_namespace(self, shared_run):
        _, telemetry, _ = shared_run
        assert telemetry.spans.sessions() == ["s0", "s1"]

    def test_sessions_record_disjoint_span_populations(self, shared_run):
        _, telemetry, _ = shared_run
        spans_a = telemetry.spans.spans(session="s0")
        spans_b = telemetry.spans.spans(session="s1")
        assert spans_a and spans_b
        assert all(span.session == "s0" for span in spans_a)
        assert all(span.session == "s1" for span in spans_b)

    def test_same_frame_id_resolves_per_session(self, shared_run):
        # both pipelines number frames from zero; lookups must not
        # cross-talk even where the ids overlap
        _, telemetry, _ = shared_run
        ids_a = {s.frame_id for s in telemetry.spans.spans(session="s0")}
        ids_b = {s.frame_id for s in telemetry.spans.spans(session="s1")}
        shared_ids = ids_a & ids_b
        assert shared_ids, "expected overlapping frame ids across sessions"
        frame_id = min(shared_ids)
        span_a = telemetry.spans.get(frame_id, session="s0")
        span_b = telemetry.spans.get(frame_id, session="s1")
        assert span_a is not span_b
        assert (span_a.session, span_b.session) == ("s0", "s1")

    def test_metric_series_carry_session_labels(self, shared_run):
        _, telemetry, _ = shared_run
        snapshot = telemetry.snapshot()
        created = {
            key.label("session"): value
            for key, value in snapshot.counters.items()
            if key.name == "frames_created_total"
        }
        assert set(created) == {"s0", "s1"}
        assert all(value > 0 for value in created.values())

    def test_shared_probe_sees_the_union(self, shared_run):
        server, telemetry, _ = shared_run
        names = telemetry.probe.process_names
        assert sum(1 for n in names if n.startswith("fps-reporter-")) == len(
            server.sessions
        )


class TestObservationFidelity:
    def test_telemetry_on_run_matches_telemetry_off(self, shared_run):
        _, _, observed = shared_run
        plain = make_server(telemetry=None).run()
        assert len(plain) == len(observed)
        for a, b in zip(plain, observed):
            assert a.client_fps == b.client_fps
            assert a.render_fps == b.render_fps
            assert a.fps_gap().mean_gap == b.fps_gap().mean_gap
            assert a.mean_mtp_ms() == b.mean_mtp_ms()

    def test_span_counts_match_session_results(self, shared_run):
        _, telemetry, results = shared_run
        for index, _ in enumerate(results):
            spans = telemetry.spans.spans(session=f"s{index}")
            displayed = [s for s in spans if s.closed_at is not None and not s.dropped]
            # every counted client frame left a closed span behind
            assert len(displayed) > 0
            assert len(spans) >= len(displayed)
