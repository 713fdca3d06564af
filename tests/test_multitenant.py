"""Tests for the shared-server (multi-tenant) extension."""

import pytest

from repro.multitenant import SharedServer
from repro.regulators import make_regulator
from repro.workloads import PRIVATE_CLOUD, Resolution


def make_server(n, spec="ODR60", benches=("ITP", "IM", "RE", "STK"), seed=1,
                duration=8000.0, **kwargs):
    return SharedServer(
        benchmarks=list(benches[:n]),
        platform=PRIVATE_CLOUD,
        resolution=Resolution.R720P,
        regulator_factory=lambda i: make_regulator(spec),
        seed=seed,
        duration_ms=duration,
        warmup_ms=1500.0,
        **kwargs,
    )


class TestConstruction:
    def test_empty_sessions_rejected(self):
        with pytest.raises(ValueError):
            make_server(0)

    def test_bad_capacities_rejected(self):
        with pytest.raises(ValueError):
            make_server(1, gpu_slots=0)
        with pytest.raises(ValueError):
            make_server(1, encode_slots=0)

    def test_sessions_have_independent_state(self):
        server = make_server(2)
        a, b = server.sessions
        assert a.counter is not b.counter
        assert a.tracker is not b.tracker
        assert a.regulator is not b.regulator
        assert a.contention is b.contention  # shared DRAM domain
        assert a.gpu_resource is b.gpu_resource


class TestSingleSessionEquivalence:
    def test_one_tenant_matches_standalone_shape(self):
        """A 1-session shared server behaves like a CloudSystem run."""
        server = make_server(1, spec="ODR60", benches=("IM",))
        [result] = server.run()
        assert 59.0 <= result.client_fps <= 66.0
        assert result.fps_gap().mean_gap < 5
        assert result.mean_mtp_ms() < 50


class TestSharing:
    def test_gpu_serializes_renders(self):
        """No point in time may have more concurrent renders than GPU
        slots: merged render busy time <= wall time × slots."""
        server = make_server(3, spec="NoReg")
        server.run()
        assert server.gpu_utilization() <= 1.0 + 1e-9

    def test_noreg_sessions_steal_from_each_other(self):
        solo = make_server(1, spec="NoReg", benches=("IM",))
        [alone] = solo.run()
        duo = make_server(2, spec="NoReg", benches=("IM", "RE"))
        shared = duo.run()[0]
        assert shared.client_fps < 0.92 * alone.client_fps

    def test_odr_sessions_coexist(self):
        """Two regulated sessions keep their targets on one server."""
        server = make_server(2, spec="ODR60", benches=("ITP", "IM"))
        results = server.run()
        for result in results:
            assert result.client_fps >= 58.5
            assert result.qos(60.0).satisfaction > 0.85

    def test_odr_consolidates_denser_than_noreg(self):
        """The datacenter claim: ODR sustains more sessions at the
        60 FPS target than free-running rendering does."""

        def density(spec):
            for n in (3, 2, 1):
                results = make_server(n, spec=spec).run()
                if all(r.client_fps >= 59.0 for r in results):
                    return n
            return 0

        assert density("ODR60") > density("NoReg")

    def test_encoder_pool_capacity_matters(self):
        starved = make_server(3, spec="ODR60", encode_slots=1)
        roomy = make_server(3, spec="ODR60", encode_slots=4)
        starved_fps = sum(r.client_fps for r in starved.run())
        roomy_fps = sum(r.client_fps for r in roomy.run())
        assert roomy_fps > starved_fps

    def test_second_gpu_adds_capacity(self):
        one = make_server(3, spec="NoReg", gpu_slots=1)
        two = make_server(3, spec="NoReg", gpu_slots=2)
        assert sum(r.render_fps for r in two.run()) > sum(
            r.render_fps for r in one.run()
        )


class TestServerMetrics:
    def test_power_grows_with_sessions_but_sublinearly(self):
        server1 = make_server(1, spec="ODR60")
        server1.run()
        server3 = make_server(3, spec="ODR60")
        server3.run()
        w1 = server1.server_power_w()
        w3 = server3.server_power_w()
        assert w3 > w1
        assert w3 < 3 * w1  # idle power is amortized across tenants

    def test_energy_per_session_favors_consolidation(self):
        """Watts per delivered session drop as tenants share the idle
        power — the consolidation argument in one number."""
        server1 = make_server(1, spec="ODR60", benches=("ITP",))
        server1.run()
        server2 = make_server(2, spec="ODR60", benches=("ITP", "IM"))
        server2.run()
        assert server2.server_power_w() / 2 < server1.server_power_w()

    def test_deterministic(self):
        a = make_server(2, seed=9).run()
        b = make_server(2, seed=9).run()
        assert [r.client_fps for r in a] == [r.client_fps for r in b]
