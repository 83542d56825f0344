"""The delegate cache: producer table + consumer table (paper §2.3, Fig. 3).

* The **producer table** holds the directory entries of lines delegated *to*
  this node (valid bit, tag, age, DirEntry — 10 bytes in hardware).  Its
  capacity bounds how many lines a node can act as home for; inserting into
  a full table evicts the oldest entry, which forces an undelegation
  (undelegation reason 1).
* The **consumer table** holds hints about lines delegated to *other* nodes
  (valid bit, tag, new home — 6 bytes).  It is 4-way set associative with
  random replacement; entries are pure hints, so eviction or staleness only
  costs extra messages (NACK_NOT_HOME + retry), never correctness.
"""

from ..common.errors import ProtocolError
from ..directory.state import DirectoryEntry


class ProducerTable:
    """Delegated-directory storage at a producer node (LRU by age field)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = {}  # addr -> DirectoryEntry; dict order tracks age

    def lookup(self, addr, touch=True):
        """The delegated directory entry for ``addr``, or None.

        ``touch`` refreshes the age field (moves the entry to youngest).
        """
        entry = self._entries.get(addr)
        if entry is not None and touch:
            self._entries.pop(addr)
            self._entries[addr] = entry
        return entry

    @property
    def has_room(self):
        """Whether an insert can proceed without evicting first."""
        return len(self._entries) < self.capacity

    def victim_if_full(self):
        """The entry that must be undelegated before a new insert, if any.

        Prefers the oldest entry that is not mid-transaction; returns None
        when there is room (check :attr:`has_room`) *or* when every entry
        is busy — in which case the caller must decline the new delegation
        instead of inserting.
        """
        if self.has_room:
            return None
        for entry in self._entries.values():  # oldest first
            if (entry.busy is None and entry.pending_updates == 0
                    and entry.deferred_undelegate is None):
                return entry
        return None

    def insert(self, addr, dir_entry):
        """Install a delegated entry; the table must have room (the caller
        evicts via :meth:`victim_if_full` + undelegation first)."""
        if addr in self._entries:
            raise ProtocolError("line 0x%x already delegated here" % addr)
        if len(self._entries) >= self.capacity:
            raise ProtocolError("producer table full; evict before insert")
        if not isinstance(dir_entry, DirectoryEntry):
            raise ProtocolError("producer table stores DirectoryEntry records")
        self._entries[addr] = dir_entry

    def remove(self, addr):
        """Invalidate the entry for ``addr`` (undelegation); returns it."""
        return self._entries.pop(addr, None)

    def __contains__(self, addr):
        return addr in self._entries

    def __len__(self):
        return len(self._entries)

    def addresses(self):
        return list(self._entries.keys())


class ConsumerTable:
    """Set-associative hint store: line address -> delegated home node.

    Sparse, like :class:`repro.cache.SetAssociativeCache`: a flat
    ``addr -> delegate`` dict answers lookups, and a dict from set index to
    that set's addresses (in insertion order, created on the set's first
    insert) is read only to choose a victim.
    """

    def __init__(self, config, rng, line_size=128):
        self.capacity = config.entries
        self.assoc = config.consumer_assoc
        self.num_sets = config.entries // config.consumer_assoc
        self._rng = rng
        # Index by line number: with a shift narrower than the line (e.g. a
        # hard-coded >>7 at 256-byte lines) consecutive lines land only on
        # every other set, halving the table's effective capacity.
        self._shift = line_size.bit_length() - 1
        self._hints = {}
        self._sets = {}

    def _set_index(self, addr):
        return (addr >> self._shift) % self.num_sets

    def lookup(self, addr):
        """The hinted delegated home for ``addr``, or None."""
        return self._hints.get(addr)

    def insert(self, addr, delegate):
        """Record (or refresh) a delegation hint; random replacement."""
        hints = self._hints
        if addr not in hints:
            index = self._set_index(addr)
            hint_set = self._sets.get(index)
            if hint_set is None:
                hint_set = self._sets[index] = []
            if len(hint_set) >= self.assoc:
                victim = self._rng.choice(hint_set)
                hint_set.remove(victim)
                del hints[victim]
            hint_set.append(addr)
        hints[addr] = delegate

    def remove(self, addr):
        """Drop a stale hint (after a NACK_NOT_HOME)."""
        if addr not in self._hints:
            return None
        self._sets[self._set_index(addr)].remove(addr)
        return self._hints.pop(addr)

    def __contains__(self, addr):
        return addr in self._hints

    def __len__(self):
        return len(self._hints)
