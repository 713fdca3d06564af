"""Tests for deterministic random streams (including hypothesis properties)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import SeededRng
from repro.simcore.rng import NORMAL_BLOCK, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_differs_by_path(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_not_collapsible(self):
        # ("ab",) and ("a", "b") must give different streams
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = SeededRng(123)
        b = SeededRng(123)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_children_are_independent_of_sibling_creation(self):
        root = SeededRng(5)
        child_a_first = root.child("a")
        seq1 = [child_a_first.random() for _ in range(5)]
        root2 = SeededRng(5)
        root2.child("b")  # creating a sibling must not shift "a"
        child_a_second = root2.child("a")
        seq2 = [child_a_second.random() for _ in range(5)]
        assert seq1 == seq2

    def test_exponential_mean(self):
        rng = SeededRng(11)
        draws = [rng.exponential(10.0) for _ in range(20000)]
        assert abs(sum(draws) / len(draws) - 10.0) < 0.5

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            SeededRng(1).exponential(0)

    def test_lognormal_mean_cv_moments(self):
        rng = SeededRng(13)
        mean, cv = 8.0, 0.5
        draws = [rng.lognormal_mean_cv(mean, cv) for _ in range(30000)]
        sample_mean = sum(draws) / len(draws)
        sample_var = sum((d - sample_mean) ** 2 for d in draws) / len(draws)
        assert abs(sample_mean - mean) < 0.25
        assert abs(math.sqrt(sample_var) / sample_mean - cv) < 0.05

    def test_lognormal_zero_cv_is_constant(self):
        rng = SeededRng(1)
        assert rng.lognormal_mean_cv(5.0, 0.0) == 5.0

    def test_lognormal_validation(self):
        rng = SeededRng(1)
        with pytest.raises(ValueError):
            rng.lognormal_mean_cv(-1.0, 0.5)
        with pytest.raises(ValueError):
            rng.lognormal_mean_cv(1.0, -0.5)

    def test_pareto_minimum_is_scale(self):
        rng = SeededRng(17)
        draws = [rng.pareto(2.0, 3.0) for _ in range(1000)]
        assert min(draws) >= 2.0

    def test_pareto_validation(self):
        with pytest.raises(ValueError):
            SeededRng(1).pareto(0, 1)

    def test_bernoulli_probability(self):
        rng = SeededRng(19)
        hits = sum(rng.bernoulli(0.3) for _ in range(20000))
        assert abs(hits / 20000 - 0.3) < 0.02

    def test_poisson_interarrivals_mean(self):
        rng = SeededRng(23)
        gen = rng.poisson_interarrivals(rate_per_ms=0.004)  # mean gap 250ms
        gaps = [next(gen) for _ in range(5000)]
        assert abs(sum(gaps) / len(gaps) - 250.0) < 12.0

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            next(SeededRng(1).poisson_interarrivals(0))

    def test_choice_covers_sequence(self):
        rng = SeededRng(29)
        options = ["x", "y", "z"]
        assert {rng.choice(options) for _ in range(100)} == set(options)


class TestClaimedStreams:
    def test_block_source_equals_scalar_normals(self):
        source = SeededRng(31).claim_normals()
        twin = SeededRng(31)
        assert [source() for _ in range(3 * NORMAL_BLOCK + 7)] == [
            twin.normal() for _ in range(3 * NORMAL_BLOCK + 7)
        ]

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.normal(),
            lambda rng: rng.random(),
            lambda rng: rng.lognormal_mean_cv(1.0, 0.3),
            lambda rng: rng.claim_normals(),
            lambda rng: rng.numpy_draws(),
        ],
        ids=["normal", "random", "lognormal_mean_cv", "second_claim", "numpy_draws"],
    )
    def test_claimed_stream_refuses_every_later_draw(self, draw):
        rng = SeededRng(37)
        source = rng.claim_normals()
        with pytest.raises(RuntimeError, match="claimed"):
            draw(rng)
        assert source() == SeededRng(37).normal()  # the claim's draws are untouched

    def test_children_of_a_claimed_stream_still_draw(self):
        rng = SeededRng(41)
        rng.claim_normals()
        assert rng.child("a").random() == SeededRng(41).child("a").random()

    def test_numpy_draws_match_wrapper_draws(self):
        standard_normal, random = SeededRng(43).numpy_draws()
        twin = SeededRng(43)
        for _ in range(100):
            assert standard_normal() == twin.normal()
            assert random() == twin.random()


class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31), names=st.lists(st.text(max_size=8), max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_derive_seed_stable(self, seed, names):
        assert derive_seed(seed, *names) == derive_seed(seed, *names)

    @given(
        mean=st.floats(min_value=0.1, max_value=100.0),
        cv=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_lognormal_always_positive(self, mean, cv, seed):
        rng = SeededRng(seed)
        assert rng.lognormal_mean_cv(mean, cv) > 0

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_uniform_in_range(self, seed):
        rng = SeededRng(seed)
        for _ in range(20):
            value = rng.uniform(3.0, 7.0)
            assert 3.0 <= value <= 7.0
