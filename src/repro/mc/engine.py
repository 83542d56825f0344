"""A small explicit-state model checker (the Murphi role in the paper).

The engine does what Murphi does for safety properties: exhaustive
breadth-first reachability over a finite state graph, checking every
invariant in every reachable state, detecting dead ends (non-quiescent
states with no enabled rule), and reconstructing a counterexample trace
when anything fails.

Models supply:

* ``initial_states`` — iterable of hashable states;
* ``rules`` — callables ``rule(state) -> iterable[(label, next_state)]``;
  a rule may yield any number of successors (nondeterminism);
* ``invariants`` — callables ``inv(state) -> bool``; ``False`` fails;
* ``quiescent`` — predicate marking states that are *allowed* to have no
  successors (everything idle, network empty).
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

from ..common.errors import DeadlockError, InvariantViolation, ReproError


class StateSpaceExceeded(ReproError):
    """Exploration hit the state cap before exhausting the space."""


@dataclass
class CheckResult:
    """Outcome of a completed (exhaustive) exploration."""

    states_explored: int
    transitions: int
    max_depth: int
    rule_counts: Dict[str, int] = field(default_factory=dict)


class ModelChecker:
    """Breadth-first exhaustive reachability with invariant checking."""

    def __init__(self, initial_states, rules, invariants, quiescent=None,
                 max_states=2_000_000, track_traces=True, canonicalize=None):
        """``track_traces=False`` stores visited states as a set without
        parent pointers (Murphi-style memory economy): violations are still
        detected, but counterexample traces are unavailable.  Use it for
        large exhaustive sweeps after a trace-tracking run of a smaller
        configuration has been debugged.

        ``canonicalize`` maps a state to its symmetry-class representative
        (e.g. data-value renaming); the visited set then stores one state
        per class.  Invariants always run on the *real* state before
        canonicalisation."""
        self.initial_states = list(initial_states)
        self.rules = list(rules)
        self.invariants = list(invariants)
        self.quiescent = quiescent or (lambda state: True)
        self.max_states = max_states
        self.track_traces = track_traces
        self.canonicalize = canonicalize or (lambda state: state)
        self._parents = {}

    def run(self):
        """Explore everything reachable; raises on any violation."""
        frontier = deque()
        self._parents = {}
        visited = self._parents if self.track_traces else set()
        rule_counts = {}
        transitions = 0
        for state in self.initial_states:
            key = self.canonicalize(state)
            if key not in visited:
                if self.track_traces:
                    self._parents[key] = None
                else:
                    visited.add(key)
                self._check_invariants(state, key)
                frontier.append((state, key, 0))
        max_depth = 0
        while frontier:
            # Each entry carries its state's canonical key, computed once
            # when the state was first reached.
            state, state_key, state_depth = frontier.popleft()
            successors = 0
            for rule in self.rules:
                for label, nxt in rule(state):
                    transitions += 1
                    successors += 1
                    rule_counts[label] = rule_counts.get(label, 0) + 1
                    key = self.canonicalize(nxt)
                    if key in visited:
                        continue
                    if len(visited) >= self.max_states:
                        raise StateSpaceExceeded(
                            "more than %d states reachable" % self.max_states)
                    if self.track_traces:
                        self._parents[key] = (state_key, label)
                    else:
                        visited.add(key)
                    max_depth = max(max_depth, state_depth + 1)
                    self._check_invariants(nxt, key)
                    frontier.append((nxt, key, state_depth + 1))
            if successors == 0 and not self.quiescent(state):
                raise DeadlockError(state, self.trace(state_key))
        return CheckResult(states_explored=len(visited),
                          transitions=transitions, max_depth=max_depth,
                          rule_counts=rule_counts)

    def _check_invariants(self, state, key):
        for invariant in self.invariants:
            if not invariant(state):
                raise InvariantViolation(
                    getattr(invariant, "__name__", repr(invariant)),
                    state, self.trace(key))

    def trace(self, state) -> List[str]:
        """Rule labels from an initial state to ``state`` (counterexample)."""
        labels = []
        while True:
            parent = self._parents.get(state)
            if parent is None:
                break
            state, label = parent
            labels.append(label)
        return list(reversed(labels))
