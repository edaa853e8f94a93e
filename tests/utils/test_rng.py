"""Tests for reproducible RNG streams (backed by numpy's default generator)."""

import pickle

import pytest

from repro.utils.rng import RngStream, derive_seed, spawn_streams


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_64_bits(self):
        for seed in (0, 1, 2**63, 12345):
            assert 0 <= derive_seed(seed, "x") < 2**64


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7).random(10)
        b = RngStream(7).random(10)
        assert list(a) == list(b)

    def test_different_seed_different_sequence(self):
        a = RngStream(7).random(10)
        b = RngStream(8).random(10)
        assert list(a) != list(b)

    def test_child_streams_independent_of_draw_order(self):
        root = RngStream(3)
        child_a_first = root.child("a").random(5)
        root2 = RngStream(3)
        _ = root2.child("b").random(100)  # drawing from another child must not matter
        child_a_second = root2.child("a").random(5)
        assert list(child_a_first) == list(child_a_second)

    def test_integers_range(self):
        stream = RngStream(1)
        values = list(stream.integers(0, 10, size=1000))
        assert min(values) >= 0
        assert max(values) < 10

    def test_shuffle_permutes(self):
        stream = RngStream(1)
        values = list(range(20))
        shuffled = list(values)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == values

    def test_permutation(self):
        stream = RngStream(1)
        perm = stream.permutation(15)
        assert sorted(list(perm)) == list(range(15))

    def test_every_draw_kind_is_deterministic(self):
        a, b = RngStream(11), RngStream(11)
        assert list(a.random(20)) == list(b.random(20))
        assert list(a.integers(0, 100, size=20)) == list(b.integers(0, 100, size=20))
        assert list(a.uniform(1.0, 2.0, size=5)) == list(b.uniform(1.0, 2.0, size=5))
        assert list(a.exponential(3.0, size=5)) == list(b.exponential(3.0, size=5))
        assert list(a.choice(range(9), size=5)) == list(b.choice(range(9), size=5))

    def test_scalar_vs_sized_draws(self):
        stream = RngStream(1)
        assert isinstance(stream.random(), float)
        assert len(stream.random(3)) == 3
        assert 0 <= stream.integers(5) < 5

    def test_choice_without_replacement_is_unique(self):
        picked = RngStream(2).choice(range(10), size=10, replace=False)
        assert sorted(picked) == list(range(10))

    def test_choice_with_replacement_stays_in_population(self):
        assert set(RngStream(2).choice([1, 2, 3], size=50)) <= {1, 2, 3}

    def test_uniform_range(self):
        values = RngStream(4).uniform(2.0, 3.0, size=500)
        assert all(2.0 <= x < 3.0 for x in values)

    def test_exponential_positive(self):
        draws = RngStream(5).exponential(2.0, size=4000)
        assert all(x > 0 for x in draws)
        assert 1.8 < sum(draws) / len(draws) < 2.2  # sanity band around scale


class TestState:
    def test_state_is_a_pickled_numpy_pair(self):
        kind, payload = pickle.loads(RngStream(9).getstate())
        assert kind == "numpy"
        assert payload == RngStream(9).generator.bit_generator.state

    def test_unknown_state_kind_rejected(self):
        """The pure-Python fallback's ``"stdlib"`` states are gone with it."""
        with pytest.raises(ValueError, match="'stdlib'"):
            RngStream(1).setstate(pickle.dumps(("stdlib", (3, (), None))))


class TestSpawnStreams:
    def test_one_stream_per_label(self):
        streams = spawn_streams(5, ["x", "y", "z"])
        assert len(streams) == 3

    def test_streams_are_distinct(self):
        streams = spawn_streams(5, range(4))
        seeds = {s.seed for s in streams}
        assert len(seeds) == 4

    def test_reproducible(self):
        a = spawn_streams(5, ["n1", "n2"])
        b = spawn_streams(5, ["n1", "n2"])
        assert [s.seed for s in a] == [s.seed for s in b]
