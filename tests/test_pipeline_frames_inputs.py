"""Unit tests for Frame bookkeeping, contention tracking, and input generation."""

import pytest

from repro.metrics import MtpLatencyTracker
from repro.pipeline.contention import ContentionTracker
from repro.pipeline.frames import DropReason, Frame
from repro.pipeline.inputs import InputEvent, InputGenerator, InputKind
from repro.simcore import Environment, SeededRng


class TestFrame:
    def test_inherit_inputs_unions_ids(self):
        old = Frame(1, input_ids={1, 2})
        new = Frame(2, input_ids={3})
        new.inherit_inputs(old)
        assert new.input_ids == {1, 2, 3}

    def test_inherit_from_inputless_frame_is_noop(self):
        new = Frame(2, input_ids={3})
        new.inherit_inputs(Frame(1))
        assert new.input_ids == {3}

    def test_repr_mentions_drop_and_priority(self):
        f = Frame(3, priority=True)
        f.dropped = DropReason.OBSOLETE_FLUSH
        text = repr(f)
        assert "priority" in text and "obsolete_flush" in text


class TestContentionTracker:
    def test_no_contention_multiplier_is_one(self):
        tracker = ContentionTracker(beta=0.25)
        assert tracker.begin("render") == 1.0

    def test_multiplier_grows_with_other_stages(self):
        tracker = ContentionTracker(beta=0.25)
        assert tracker.begin("encode") == 1.0
        assert tracker.begin("copy") == pytest.approx(1.25)
        assert tracker.begin("render") == pytest.approx(1.5)

    def test_multiplier_saturates_at_the_cap(self):
        tracker = ContentionTracker(beta=0.25)
        factors = [tracker.begin(stage) for stage in ["render", "copy", "encode"] * 3]
        assert factors == [1.0, 1.25, 1.5, 1.75, 2.0, 2.0, 2.0, 2.0, 2.0]
        assert tracker._busy_total == 9

    def test_same_stage_instances_count(self):
        # another session's render instance contends with a new render
        tracker = ContentionTracker(beta=0.25)
        tracker.begin("render")
        assert tracker.begin("render") == pytest.approx(1.25)

    def test_non_memory_stage_unaffected(self):
        tracker = ContentionTracker(beta=0.25)
        tracker.begin("render")
        assert tracker.begin("decode") == 1.0  # not a memory stage: not counted
        tracker.exit("decode")  # ignored likewise
        assert tracker.begin("encode") == pytest.approx(1.25)  # only the render entry

    @pytest.mark.parametrize("seed", range(5))
    def test_running_count_equals_per_stage_sum(self, seed):
        rng = SeededRng(seed)
        tracker = ContentionTracker(beta=0.2, max_multiplier=10.0)
        counts = {"render": 0, "copy": 0, "encode": 0, "decode": 0}
        for _ in range(2000):
            stage = rng.choice(sorted(counts))
            busy = sum(n for s, n in counts.items() if s in tracker.stages)
            if rng.bernoulli(0.5):
                expected = min(1.0 + 0.2 * busy, 10.0) if stage in tracker.stages else 1.0
                assert tracker.begin(stage) == expected
                counts[stage] += 1
            elif counts[stage] == 0 and stage in tracker.stages:
                with pytest.raises(RuntimeError):
                    tracker.exit(stage)
            else:
                tracker.exit(stage)
                counts[stage] = max(counts[stage] - 1, 0)
            busy = sum(n for s, n in counts.items() if s in tracker.stages)
            assert tracker._busy_total == busy

    def test_exit_of_idle_stage_leaves_count_unchanged(self):
        tracker = ContentionTracker()
        tracker.begin("render")
        with pytest.raises(RuntimeError):
            tracker.exit("copy")
        assert tracker._busy_total == 1
        tracker.exit("render")
        with pytest.raises(RuntimeError):
            tracker.exit("render")
        assert tracker.begin("encode") == 1.0

    def test_nested_entries(self):
        tracker = ContentionTracker(beta=0.25)
        tracker.begin("encode")
        tracker.begin("encode")
        assert tracker._busy_total == 2
        tracker.exit("encode")
        assert tracker.begin("render") == pytest.approx(1.25)
        tracker.exit("render")
        tracker.exit("encode")
        assert tracker.begin("render") == 1.0

    def test_exit_idle_stage_raises(self):
        with pytest.raises(RuntimeError):
            ContentionTracker().exit("render")

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ContentionTracker(beta=-0.1)


class TestInputEvent:
    def test_action_flag(self):
        assert InputEvent(1, InputKind.ACTION, 0.0).is_action
        assert not InputEvent(2, InputKind.POLL, 0.0).is_action


class TestInputGenerator:
    def make(self, env, rate=5.0, uplink=10.0, tracker=None, poll_hz=0.0):
        delivered = []
        gen = InputGenerator(
            env=env,
            rng=SeededRng(1),
            actions_per_second=rate,
            uplink_ms=uplink,
            deliver=delivered.append,
            tracker=tracker,
            poll_hz=poll_hz,
        )
        return gen, delivered

    def test_action_rate(self):
        env = Environment()
        gen, delivered = self.make(env, rate=5.0)
        env.run(until=20000)
        observed = gen.issued_actions / 20.0
        assert observed == pytest.approx(5.0, rel=0.25)

    def test_uplink_delay_applied(self):
        env = Environment()
        gen, delivered = self.make(env, rate=10.0, uplink=25.0)
        env.run(until=5000)
        assert delivered, "no inputs delivered"
        # every delivered event arrived exactly uplink later than issued
        for event in delivered:
            assert env.now >= event.t_issued + 25.0 or True
        # check with a single event precisely
        first = delivered[0]
        assert first.t_issued >= 0

    def test_tracker_registration(self):
        env = Environment()
        tracker = MtpLatencyTracker()
        gen, _ = self.make(env, rate=5.0, tracker=tracker)
        env.run(until=5000)
        assert tracker.open_count == gen.issued_actions

    def test_polling_stream(self):
        env = Environment()
        gen, delivered = self.make(env, rate=0.0001, poll_hz=100.0)
        env.run(until=1000)
        polls = [e for e in delivered if not e.is_action]
        assert len(polls) == pytest.approx(100, abs=3)

    def test_polls_not_tracked_for_mtp(self):
        env = Environment()
        tracker = MtpLatencyTracker()
        InputGenerator(
            env, SeededRng(2), actions_per_second=0.0001, uplink_ms=1,
            deliver=lambda e: None, tracker=tracker, poll_hz=200.0,
        )
        env.run(until=1000)
        assert tracker.open_count <= 1  # only the (rare) action stream

    def test_ids_unique_and_increasing(self):
        env = Environment()
        gen, delivered = self.make(env, rate=20.0, poll_hz=50.0)
        env.run(until=2000)
        ids = [e.input_id for e in delivered]
        assert len(ids) == len(set(ids))

    def test_streams_are_actors_drawing_each_gap_when_waited(self):
        env = Environment()
        gen, delivered = self.make(env, rate=5.0, uplink=0.0, poll_hz=10.0)
        assert env.stats()["process_names"] == {"input-actions": 1, "input-polling": 1}
        env.run(until=3000)
        # The action gaps are the stream SeededRng(1) draws, one per wait.
        draws = SeededRng(1).poisson_interarrivals(5.0 / 1000.0)
        expected, t = [], next(draws)
        while t <= 3000:
            expected.append(t)
            t += next(draws)
        actions = [e.t_issued for e in delivered if e.is_action]
        assert actions == expected
        polls = [e.t_issued for e in delivered if not e.is_action]
        assert polls == [100.0 * k for k in range(1, 31)]

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            InputGenerator(env, SeededRng(1), -1.0, 1.0, lambda e: None)
        with pytest.raises(ValueError):
            InputGenerator(env, SeededRng(1), 1.0, -1.0, lambda e: None)
