"""The explicit-state model-checking engine, on toy models."""

import pytest

from repro.common.errors import DeadlockError, InvariantViolation
from repro.mc import ModelChecker, StateSpaceExceeded


def counter_rules(limit):
    """A toy model: an integer that can be incremented up to ``limit``."""
    def increment(state):
        if state < limit:
            yield ("inc", state + 1)
    return [increment]


class TestExploration:
    def test_explores_reachable_states(self):
        mc = ModelChecker([0], counter_rules(5), [], quiescent=lambda s: True)
        res = mc.run()
        assert res.states_explored == 6
        assert res.transitions == 5
        assert res.max_depth == 5

    def test_multiple_initial_states(self):
        mc = ModelChecker([0, 3], counter_rules(5), [])
        res = mc.run()
        assert res.states_explored == 6

    def test_cycles_terminate(self):
        def spin(state):
            yield ("spin", (state + 1) % 4)
        mc = ModelChecker([0], [spin], [])
        res = mc.run()
        assert res.states_explored == 4

    def test_rule_counts(self):
        mc = ModelChecker([0], counter_rules(3), [])
        res = mc.run()
        assert res.rule_counts == {"inc": 3}

    def test_state_cap_enforced(self):
        mc = ModelChecker([0], counter_rules(100), [], max_states=10)
        with pytest.raises(StateSpaceExceeded):
            mc.run()


class TestInvariants:
    def test_violation_raised_with_trace(self):
        def below_four(state):
            return state < 4
        mc = ModelChecker([0], counter_rules(10), [below_four])
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert err.value.state == 4
        assert err.value.trace == ["inc"] * 4
        assert err.value.invariant_name == "below_four"

    def test_initial_state_checked(self):
        mc = ModelChecker([9], counter_rules(10), [lambda s: s < 5])
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert err.value.trace == []

    def test_no_traces_mode_still_detects(self):
        mc = ModelChecker([0], counter_rules(10), [lambda s: s < 4],
                          track_traces=False)
        with pytest.raises(InvariantViolation) as err:
            mc.run()
        assert err.value.trace == []  # traces unavailable but detected


class TestDeadlock:
    def test_dead_end_reported(self):
        mc = ModelChecker([0], counter_rules(3), [],
                          quiescent=lambda s: False)
        with pytest.raises(DeadlockError) as err:
            mc.run()
        assert err.value.state == 3

    def test_quiescent_dead_end_ok(self):
        mc = ModelChecker([0], counter_rules(3), [],
                          quiescent=lambda s: s == 3)
        res = mc.run()
        assert res.states_explored == 4


class TestCanonicalization:
    def test_symmetry_collapses_states(self):
        """States (a, b) equivalent up to swapping explore once per class."""
        def rules(state):
            a, b = state
            if a < 2:
                yield ("a", (a + 1, b))
            if b < 2:
                yield ("b", (a, b + 1))

        plain = ModelChecker([(0, 0)], [rules], []).run()
        canon = ModelChecker([(0, 0)], [rules], [],
                             canonicalize=lambda s: tuple(sorted(s))).run()
        assert canon.states_explored < plain.states_explored

    def test_invariants_see_real_states(self):
        """Canonicalisation must not hide violations in real states."""
        seen = []

        def rules(state):
            if state < 3:
                yield ("inc", state + 1)

        def record(state):
            seen.append(state)
            return True

        ModelChecker([0], [rules], [record],
                     canonicalize=lambda s: 0).run()
        assert seen == [0]  # every successor collapses to class 0

    @pytest.mark.parametrize("track_traces", [True, False])
    def test_each_state_canonicalised_once(self, track_traces):
        """One canonicalisation per initial state and per transition: a
        parent's key rides in the frontier instead of being recomputed
        for its trace pointer."""
        calls = []

        def canonical(state):
            calls.append(state)
            return state

        result = ModelChecker([0], counter_rules(5), [],
                              track_traces=track_traces,
                              canonicalize=canonical).run()
        assert len(calls) == result.transitions + 1

    def test_traces_use_canonical_parent_keys(self):
        """Counterexample traces walk parent *keys*, so a state reached
        through a symmetric twin still reports a real path."""
        def rules(state):
            a, b = state
            if a < 2:
                yield ("a", (a + 1, b))
            if b < 2:
                yield ("b", (a, b + 1))

        def not_both_two(state):
            return state != (2, 2)

        mc = ModelChecker([(0, 0)], [rules], [not_both_two],
                          canonicalize=lambda s: tuple(sorted(s)))
        with pytest.raises(InvariantViolation) as info:
            mc.run()
        assert len(info.value.trace) == 4
        assert set(info.value.trace) <= {"a", "b"}
