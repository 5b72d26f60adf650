"""Set-associative cache state with LRU replacement.

The simulator tracks caches at line granularity: a line id is the
"address".  Each line has an MSI state; timing and energy live in the
controllers, this class is pure state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum


class CacheState(Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"

    # Identity hash (see MsgType): members are singletons and states are
    # hashed on the simulator's hottest paths.
    __hash__ = object.__hash__


class SetAssocCache:
    """An LRU set-associative cache of line ids.

    Parameters
    ----------
    n_sets / associativity:
        Geometry; capacity = ``n_sets * associativity`` lines.
    """

    __slots__ = ("n_sets", "associativity", "_sets")

    def __init__(self, n_sets: int, associativity: int) -> None:
        if n_sets < 1:
            raise ValueError(f"n_sets must be >= 1, got {n_sets}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        self.n_sets = n_sets
        self.associativity = associativity
        # per-set OrderedDict: line -> CacheState, LRU order (oldest first)
        self._sets: list[OrderedDict[int, CacheState]] = [
            OrderedDict() for _ in range(n_sets)
        ]

    @property
    def capacity_lines(self) -> int:
        return self.n_sets * self.associativity

    def _set_of(self, line: int) -> OrderedDict[int, CacheState]:
        return self._sets[line % self.n_sets]

    # ------------------------------------------------------------------
    def lookup(self, line: int, touch: bool = True) -> CacheState:
        """State of a line (``INVALID`` if absent); updates LRU on hit."""
        s = self._sets[line % self.n_sets]
        # Membership test rather than s.get(): most lookups (every
        # broadcast invalidation probes every cache) miss.
        if line not in s:
            return CacheState.INVALID
        if touch:
            s.move_to_end(line)
        return s[line]

    def install(self, line: int, state: CacheState) -> tuple[int, CacheState] | None:
        """Insert/overwrite a line; returns the evicted ``(line, state)``
        if the set overflowed, else ``None``."""
        if state is CacheState.INVALID:
            raise ValueError("cannot install a line in INVALID state")
        s = self._sets[line % self.n_sets]
        if line in s:
            s[line] = state
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.associativity:
            victim = s.popitem(last=False)  # LRU
        s[line] = state
        return victim

    def set_state(self, line: int, state: CacheState) -> None:
        """Change the state of a resident line (or drop it via INVALID)."""
        s = self._sets[line % self.n_sets]
        if state is CacheState.INVALID:
            s.pop(line, None)
            return
        if line not in s:
            raise KeyError(f"line {line} not resident")
        s[line] = state

    def invalidate(self, line: int) -> CacheState:
        """Drop a line; returns its previous state (INVALID if absent)."""
        s = self._sets[line % self.n_sets]
        return s.pop(line, CacheState.INVALID)

    def occupancy(self) -> int:
        """Total resident lines."""
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> list[int]:
        """All resident line ids (test helper)."""
        return [line for s in self._sets for line in s]
