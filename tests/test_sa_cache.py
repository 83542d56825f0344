"""Generic set-associative cache: geometry, replacement, pinning."""

import gc
import random
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (CacheCapacityError, CacheLine, LineState, RacKind,
                         SetAssociativeCache)
from repro.common import CacheConfig, ConfigError
from repro.common.errors import ReproError
from repro.fuzz.scenarios import FuzzScenario
from repro.sim import System


def make_cache(size=4096, assoc=4, line=128, replacement="lru", rng=None):
    cfg = CacheConfig(size_bytes=size, assoc=assoc, line_size=line,
                      replacement=replacement)
    return SetAssociativeCache(cfg, rng=rng, name="test")


class TestGeometry:
    def test_set_index_wraps(self):
        cache = make_cache(size=4096, assoc=4, line=128)  # 8 sets
        assert cache.set_index(0) == 0
        assert cache.set_index(128) == 1
        assert cache.set_index(8 * 128) == 0

    def test_unaligned_address_rejected(self):
        cache = make_cache()
        with pytest.raises(ReproError):
            cache.probe(5)

    @pytest.mark.parametrize("call", [
        lambda c: c.probe(5), lambda c: c.access(5), lambda c: 5 in c,
        lambda c: c.insert(5), lambda c: c.invalidate(5),
        lambda c: c.has_room(5), lambda c: c.set_index(5),
        lambda c: c.set_lines(5)])
    def test_unaligned_address_rejected_everywhere(self, call):
        cache = make_cache()
        with pytest.raises(ReproError, match="not 128-byte line aligned"):
            call(cache)

    def test_random_replacement_needs_rng(self):
        cfg = CacheConfig(4096, 4, replacement="random")
        with pytest.raises(ConfigError):
            SetAssociativeCache(cfg, rng=None)


class TestResidency:
    def test_insert_then_probe(self):
        cache = make_cache()
        cache.insert(0, state=LineState.SHARED, value=9)
        line = cache.probe(0)
        assert line.value == 9
        assert line.state is LineState.SHARED

    def test_probe_miss_returns_none(self):
        assert make_cache().probe(128) is None

    def test_contains(self):
        cache = make_cache()
        cache.insert(256)
        assert 256 in cache
        assert 0 not in cache

    def test_len_counts_lines(self):
        cache = make_cache()
        for i in range(5):
            cache.insert(i * 128)
        assert len(cache) == 5

    def test_invalidate_removes(self):
        cache = make_cache()
        cache.insert(0)
        removed = cache.invalidate(0)
        assert removed is not None
        assert 0 not in cache

    def test_invalidate_missing_returns_none(self):
        assert make_cache().invalidate(0) is None

    def test_insert_existing_updates_in_place(self):
        cache = make_cache()
        cache.insert(0, state=LineState.SHARED, value=1)
        evicted = cache.insert(0, state=LineState.MODIFIED, value=2)
        assert evicted is None
        assert cache.probe(0).value == 2
        assert len(cache) == 1


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = make_cache(size=4096, assoc=2)
        stride = cache.config.num_sets * 128  # all map to set 0
        cache.insert(0 * stride)
        cache.insert(1 * stride)
        cache.access(0 * stride)  # refresh line 0
        evicted = cache.insert(2 * stride)
        assert evicted.addr == 1 * stride

    def test_access_returns_none_on_miss(self):
        assert make_cache().access(0) is None

    def test_insert_without_eviction_returns_none(self):
        cache = make_cache(assoc=2)
        stride = cache.config.num_sets * 128
        cache.insert(0)
        assert cache.insert(128) is None     # other set
        assert cache.insert(0) is None       # hit
        assert cache.insert(stride) is None  # free way in the same set
        assert len(cache) == 3


class TestPinning:
    def test_pinned_lines_never_victims(self):
        cache = make_cache(size=4096, assoc=2)
        stride = cache.config.num_sets * 128
        cache.insert(0 * stride, pinned=True)
        cache.insert(1 * stride)
        evicted = cache.insert(2 * stride)
        assert evicted.addr == 1 * stride  # the unpinned one

    def test_all_pinned_raises(self):
        cache = make_cache(size=4096, assoc=2)
        stride = cache.config.num_sets * 128
        cache.insert(0 * stride, pinned=True)
        cache.insert(1 * stride, pinned=True)
        with pytest.raises(CacheCapacityError):
            cache.insert(2 * stride)

    def test_has_room_respects_pins(self):
        cache = make_cache(size=4096, assoc=2)
        stride = cache.config.num_sets * 128
        cache.insert(0 * stride, pinned=True)
        cache.insert(1 * stride, pinned=True)
        assert not cache.has_room(2 * stride)
        assert cache.has_room(0 * stride)  # hit is always fine
        assert cache.has_room(128)  # different set

    def test_random_replacement_picks_unpinned(self):
        cache = make_cache(size=4096, assoc=4, replacement="random",
                           rng=random.Random(7))
        stride = cache.config.num_sets * 128
        for i in range(3):
            cache.insert(i * stride, pinned=True)
        cache.insert(3 * stride)
        evicted = cache.insert(4 * stride)
        assert evicted.addr == 3 * stride


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, line_indices):
        cache = make_cache(size=2048, assoc=2)  # 16 lines capacity
        for idx in line_indices:
            cache.insert(idx * 128)
        assert len(cache) <= 16
        # And per-set occupancy never exceeds associativity.
        per_set = {}
        for line in cache.lines():
            per_set.setdefault(cache.set_index(line.addr), []).append(line)
        assert all(len(lines) <= 2 for lines in per_set.values())

    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                    max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_most_recent_insert_always_resident(self, line_indices):
        cache = make_cache(size=2048, assoc=2)
        for idx in line_indices:
            cache.insert(idx * 128)
            assert idx * 128 in cache


class TestSetLines:
    def test_lists_one_set_in_insertion_order(self):
        cache = make_cache(size=4096, assoc=4)  # 8 sets
        stride = cache.config.num_sets * 128
        for addr in (3 * stride, 128, stride, 0, 2 * stride):
            cache.insert(addr)
        assert [line.addr for line in cache.set_lines(0)] == [
            3 * stride, stride, 0, 2 * stride]
        assert [line.addr for line in cache.set_lines(128)] == [128]
        assert cache.set_lines(256) == ()


_last_use_of = attrgetter("last_use")


class DenseReferenceCache:
    """Reference model for the differential test: the dense layout, a list
    holding one slot per set, each an ``addr -> CacheLine`` dict created on
    first touch."""

    def __init__(self, config, rng=None, name="cache"):
        self.name = name
        self._rng = rng
        self._line_size = config.line_size
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._sets = [None] * config.num_sets
        self._clock = 0
        self._random_replacement = config.replacement == "random"

    def set_index(self, addr):
        if addr % self._line_size:
            raise ReproError("%s: address 0x%x is not %d-byte line aligned"
                             % (self.name, addr, self._line_size))
        return (addr // self._line_size) % self._num_sets

    def _set_at(self, addr):
        index = self.set_index(addr)
        if self._sets[index] is None:
            self._sets[index] = {}
        return self._sets[index]

    def probe(self, addr):
        return self._set_at(addr).get(addr)

    def access(self, addr):
        line = self._set_at(addr).get(addr)
        if line is not None:
            self._clock += 1
            line.last_use = self._clock
        return line

    def __contains__(self, addr):
        return self.probe(addr) is not None

    def __len__(self):
        return sum(len(s) for s in self._sets if s is not None)

    def lines(self):
        for cache_set in self._sets:
            if cache_set is not None:
                yield from cache_set.values()

    def set_lines(self, addr):
        return tuple(self._set_at(addr).values())

    def has_room(self, addr):
        cache_set = self._set_at(addr)
        if addr in cache_set or len(cache_set) < self._assoc:
            return True
        return any(not line.pinned for line in cache_set.values())

    def insert(self, addr, state=LineState.SHARED, value=0, pinned=False,
               kind=None, dirty=False):
        cache_set = self._set_at(addr)
        self._clock += 1
        existing = cache_set.get(addr)
        if existing is not None:
            existing.state = state
            existing.value = value
            existing.pinned = pinned
            existing.dirty = dirty
            if kind is not None:
                existing.kind = kind
            existing.last_use = self._clock
            return None
        evicted = None
        if len(cache_set) >= self._assoc:
            candidates = [line for line in cache_set.values()
                          if not line.pinned]
            if not candidates:
                raise CacheCapacityError(
                    "%s: set %d is full of pinned lines"
                    % (self.name, self.set_index(addr)))
            if self._random_replacement:
                evicted = self._rng.choice(candidates)
            else:
                evicted = min(candidates, key=_last_use_of)
            del cache_set[evicted.addr]
        line = CacheLine(addr=addr, state=state, value=value, pinned=pinned,
                         dirty=dirty, last_use=self._clock)
        if kind is not None:
            line.kind = kind
        cache_set[addr] = line
        return evicted

    def invalidate(self, addr):
        return self._set_at(addr).pop(addr, None)


def _snapshot(result):
    """Comparable form of any cache return value."""
    if isinstance(result, CacheLine):
        return ("line", result.addr, result.state, result.value, result.pinned,
                result.kind, result.consumed, result.dirty, result.last_use)
    if isinstance(result, tuple):
        return tuple(_snapshot(item) for item in result)
    return result


def _outcome(cache, op, addr, kwargs):
    try:
        if op == "insert":
            result = cache.insert(addr, **kwargs)
        elif op == "contains":
            result = addr in cache
        elif op == "len":
            result = len(cache)
        elif op == "lines":
            result = tuple(cache.lines())
        else:
            result = getattr(cache, op)(addr)
    except ReproError as exc:  # CacheCapacityError or misalignment
        return ("raised", type(exc).__name__, str(exc))
    return _snapshot(result)


_OPS = st.tuples(
    st.sampled_from(["insert", "insert", "insert", "access", "probe",
                     "invalidate", "has_room", "contains", "set_lines",
                     "len", "lines"]),
    st.integers(min_value=0, max_value=10 ** 6),   # line number (mod range)
    st.integers(min_value=0, max_value=30),        # 0 -> misaligned address
    st.fixed_dictionaries({
        "state": st.sampled_from([LineState.SHARED, LineState.EXCLUSIVE,
                                  LineState.MODIFIED]),
        "value": st.integers(min_value=0, max_value=9),
        "pinned": st.sampled_from([False, False, False, True]),
        "kind": st.sampled_from([None, RacKind.VICTIM, RacKind.UPDATE,
                                 RacKind.DELEGATED]),
        "dirty": st.booleans(),
    }),
)


class TestDifferentialAgainstDenseLayout:
    """The sparse cache returns exactly what the dense layout returns:
    hits, victims (LRU and seeded random), errors, and ``lines()`` order."""

    @pytest.mark.parametrize("size,assoc", [
        (2048, 2),    # 8 sets: shift + mask indexing
        (768, 2),     # 3 sets: modulo indexing
        (2560, 4),    # 5 sets, 4-way
        (512, 1),     # direct mapped
    ])
    @pytest.mark.parametrize("replacement", ["lru", "random"])
    @given(ops=st.lists(_OPS, min_size=30, max_size=120),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_same_behaviour(self, size, assoc, replacement, ops, seed):
        cfg = CacheConfig(size_bytes=size, assoc=assoc, line_size=128,
                          replacement=replacement)
        sparse = SetAssociativeCache(cfg, rng=random.Random(seed),
                                     name="cache")
        dense = DenseReferenceCache(cfg, rng=random.Random(seed),
                                    name="cache")
        span = cfg.num_lines * 3  # enough conflicting lines per set
        for op, line_no, align, kwargs in ops:
            addr = (line_no % span) * 128 + (8 if align == 0 else 0)
            assert (_outcome(sparse, op, addr, kwargs)
                    == _outcome(dense, op, addr, kwargs)), (op, addr)
        assert (_snapshot(tuple(sparse.lines()))
                == _snapshot(tuple(dense.lines())))
        assert len(sparse) == len(dense)


class TestConstructionFootprint:
    def test_storm256_system_is_small(self):
        """A 256-node System pays for the cache sets a run touches, not for
        every set of every cache (one slot per set traced 12,237 KB)."""
        config = FuzzScenario.storm(0, num_nodes=256,
                                    directory_format="limited:2").config
        # Warm up first, so lazy imports and caches are not counted.
        System(FuzzScenario.storm(0, num_nodes=4).config, check_coherence=True)
        gc.collect()
        tracemalloc.start()
        try:
            system = System(config, check_coherence=True)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(system.hubs) == 256
        assert traced < 5 * 1024 * 1024, traced
