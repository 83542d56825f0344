"""Stats counters, the latency quantile and seeded RNG streams."""

import pytest

from repro.common import Stats
from repro.common.rng import derive_seed, stream
from repro.common.stats import quantile, remote_misses, total_messages


class TestStats:
    def test_counters_start_at_zero(self):
        assert Stats().get("anything") == 0

    def test_inc_and_get(self):
        s = Stats()
        s.inc("x")
        s.inc("x", 4)
        assert s.get("x") == 5

    def test_prefixed(self):
        s = Stats()
        s.inc("msg.sent.GETS", 2)
        s.inc("msg.sent.INV", 3)
        s.inc("miss.local")
        assert s.prefixed("msg.sent.") == {"msg.sent.GETS": 2,
                                           "msg.sent.INV": 3}

    def test_total(self):
        s = Stats()
        s.inc("msg.sent.GETS", 2)
        s.inc("msg.sent.INV", 3)
        assert s.total("msg.sent.") == 5

    def test_merge(self):
        a, b = Stats(), Stats()
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 3)
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 3

    def test_as_dict_sorted(self):
        s = Stats()
        s.inc("b")
        s.inc("a")
        assert list(s.as_dict()) == ["a", "b"]

    def test_remote_misses_helper(self):
        s = Stats()
        s.inc("miss.remote_2hop", 3)
        s.inc("miss.remote_3hop", 4)
        assert remote_misses(s) == 7

    def test_total_messages_helper(self):
        s = Stats()
        s.inc("msg.sent.GETS", 2)
        s.inc("msg.sent.UPDATE", 5)
        assert total_messages(s) == 7


class TestQuantile:
    """Nearest-rank quantile over ``(value, count)`` pairs."""

    def test_empty_is_none(self):
        assert quantile([], 0.5) is None
        assert quantile([(100, 0)], 0.95) is None

    def test_single_value(self):
        assert quantile([(408, 1)], 0.0) == 408
        assert quantile([(408, 1)], 0.5) == 408
        assert quantile([(408, 7)], 0.95) == 408

    def test_ties_resolve_to_the_tied_value(self):
        # Ranks 2..9 of ten all sit on 200.
        pairs = [(100, 1), (200, 8), (300, 1)]
        assert quantile(pairs, 0.2) == 200
        assert quantile(pairs, 0.5) == 200
        assert quantile(pairs, 0.9) == 200
        assert quantile(pairs, 0.95) == 300

    def test_p50_p95_hand_built(self):
        # 20 samples: 10 at 10, 8 at 20, 1 at 30, 1 at 40.  Nearest rank:
        # p50 -> rank 10 (last 10), p95 -> rank 19 (the 30).
        pairs = [(40, 1), (20, 8), (10, 10), (30, 1)]
        assert quantile(pairs, 0.5) == 10
        assert quantile(pairs, 0.95) == 30
        assert quantile(pairs, 1.0) == 40

    def test_repeated_values_merge(self):
        """Per-class counts merge by concatenation."""
        merged = [(10, 3), (20, 1)] + [(10, 1), (20, 5)]
        assert quantile(merged, 0.5) == 20
        assert quantile(merged, 0.4) == 10

    def test_integer_order_not_lexical(self):
        # As strings "1000" < "300"; the answer must be numeric.
        assert quantile([[1000, 1], [300, 1]], 0.5) == 300

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            quantile([(1, 1)], 1.5)


class TestRng:
    def test_same_name_same_stream(self):
        assert stream(1, "a").random() == stream(1, "a").random()

    def test_different_names_differ(self):
        assert stream(1, "a").random() != stream(1, "b").random()

    def test_different_seeds_differ(self):
        assert stream(1, "a").random() != stream(2, "a").random()

    def test_derive_seed_is_32bit(self):
        for seed in (0, 1, 123456789):
            assert 0 <= derive_seed(seed, "stream") < 2 ** 32

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")
