"""Edge-case tests for simcore paths not covered by the basic suites."""

import pytest

from repro.simcore import Actor, Environment


@pytest.fixture
def env():
    return Environment()


class TestProcessEdges:
    def test_process_name_defaults(self, env):
        class Loop(Actor):
            def __init__(self, name=None):
                if name is not None:
                    self.name = name
                env.start(self, lambda: None)

        assert Loop().name == "actor"
        assert Loop("custom").name == "custom"
        assert env.stats()["process_names"] == {"actor": 1, "custom": 1}


class TestRunEdges:
    def test_clock_does_not_regress_on_empty_queue(self, env):
        env.run(until=100)
        env.run(until=200)
        assert env.now == 200
