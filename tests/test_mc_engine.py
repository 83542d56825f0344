"""The explicit-state model-checking engine, on toy models."""

import pytest

from repro.common.errors import DeadlockError, InvariantViolation
from repro.mc import ModelChecker, StateSpaceExceeded, engine


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


class RecordingSet(set):
    """Stands in for the engine's visited set and keeps what it stores."""

    stored = []

    def add(self, key):
        RecordingSet.stored.append(key)
        super().add(key)


def stored_keys(monkeypatch, checker):
    """Run ``checker`` and return the keys its visited set stored."""
    RecordingSet.stored = []
    monkeypatch.setattr(engine, "set", RecordingSet, raising=False)
    checker.run()
    if checker.track_traces:
        return list(checker._parents)
    return list(RecordingSet.stored)


def grid_rules(state):
    """Two independent counters, each a tuple, plus a shared tag.  Labels
    are built per transition, as the protocol model's are."""
    for axis in (1, 2):
        count, name = state[axis]
        if count < 3:
            nxt = list(state)
            nxt[axis] = (count + 1, name)
            yield ("inc_%d" % axis, tuple(nxt))


class TestCollapseCompression:
    @pytest.mark.parametrize("track_traces", [True, False])
    def test_equal_components_are_one_object(self, monkeypatch,
                                             track_traces):
        """Stored keys share one copy of each distinct component and of
        each distinct element inside one, even though the canonicaliser
        builds fresh ones for every successor."""
        def rebuild(state):
            tag, (a, x), (b, y) = state
            return (tuple([tag]), ((a,), tuple([x])), ((b,), tuple([y])))

        mc = ModelChecker([("t", (0, "x"), (0, "y"))], [grid_rules], [],
                          track_traces=track_traces, canonicalize=rebuild)
        keys = stored_keys(monkeypatch, mc)
        assert len(keys) == 16
        by_value = {}
        for key in keys:
            for part in key:
                assert by_value.setdefault(part, part) is part
                for item in part:
                    if isinstance(item, tuple):
                        assert by_value.setdefault(item, item) is item
        # Top level: the tag and four values per counter; inside: the
        # counts 0..3 and the two names.
        assert len(by_value) == (1 + 4 + 4) + (4 + 2)

    def test_parent_map_shares_labels(self):
        """Each distinct rule label is stored once in the parent map."""
        mc = ModelChecker([("t", (0, "x"), (0, "y"))], [grid_rules], [])
        mc.run()
        labels = {}
        for parent in mc._parents.values():
            if parent is not None:
                label = parent[1]
                assert labels.setdefault(label, label) is label
        assert set(labels) == {"inc_1", "inc_2"}

    @pytest.mark.parametrize("track_traces", [True, False])
    @pytest.mark.parametrize("canonical", [None, lambda s: -s, str])
    def test_non_tuple_keys_stored_as_they_come(self, track_traces,
                                                canonical):
        """The counter models: neither states nor keys are tuples."""
        res = ModelChecker([0], counter_rules(5), [],
                           track_traces=track_traces,
                           canonicalize=canonical).run()
        assert (res.states_explored, res.transitions, res.max_depth) \
            == (6, 5, 5)

    @pytest.mark.parametrize("track_traces", [True, False])
    def test_rules_see_real_states_not_shared_keys(self, track_traces):
        """``False == 0`` and ``(False,) == (0,)``, so a shared key part can
        come back as either; the rules must still see the state they
        produced.  A rule that branches on ``is False`` pins that down."""
        def rules(state):
            flag, inner, step = state
            if step >= 3:
                return
            if flag is False and inner[0] is False:
                yield ("from_false", (0, (0,), step + 1))
            else:
                yield ("from_zero", (0, (0,), step + 1))
                yield ("to_false", (False, (0,), step + 1))

        seen = []

        def record(state):
            seen.append(state)
            return True

        res = ModelChecker([(False, (False,), 0)], [rules], [record],
                           track_traces=track_traces).run()
        # ``to_false``'s successors equal ``from_zero``'s, so only the
        # initial state ever takes the ``is False`` branch.
        assert res.rule_counts == {"from_false": 1, "from_zero": 2,
                                   "to_false": 2}
        assert (res.states_explored, res.transitions, res.max_depth) \
            == (4, 5, 3)
        assert [(s[0] is False, s[1][0] is False) for s in seen] == [
            (True, True), (False, False), (False, False), (False, False)]
