"""The one bounded memo class, behind the engines of `cobweb.poset` and the
primitive parts of `cobweb._parts`; every operation reads one key."""

from __future__ import annotations

import threading
from typing import Callable, Hashable


class Memo:
    """Values by key, each with the cost its owner charges it, least recently
    used first: the charged total stays at or below `limit`, and a value that
    costs more is not kept.  One private lock guards every update and every
    recharge's measure, so threads may share a memo; callers build their
    values outside it and take no lock of their own.  `entries` maps each key
    to its (value, cost), in order of use: a plain dict, re-inserted on use.
    A value is kept under one key at a time: every caller puts a fresh value
    on a miss.  The memo alone knows which key that is, so its owner holds no
    key: `recharge` takes the value alone."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.charged = 0
        self.entries: dict[Hashable, tuple[object, int]] = {}
        # The key of each kept value, by its id: the memo holds the value, so
        # no other live object has that id.
        self._keys: dict[int, Hashable] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> object | None:
        """The value kept under key, now the most recent, or None."""
        with self._lock:
            if (kept := self.entries.pop(key, None)) is None:
                return None
            self.entries[key] = kept
            self._keys[id(kept[0])] = key  # the caller's, so no older equal key is pinned
            return kept[0]

    def put(self, key: Hashable, value: object, cost: int) -> None:
        """Keep value under key as the most recent, in place of any value
        there, unless it costs more than the limit: then neither is kept."""
        with self._lock:
            self._keep(key, value, cost)

    def recharge(self, value: object, measure: Callable[[], int]) -> None:
        """Charge value again, say once it has grown, by measure(), called
        under the lock, so a charge is never older than one made by a thread
        that grew the value later; only while value is kept, so a value not
        kept stays out."""
        with self._lock:
            if (i := id(value)) in self._keys:
                self._keep(self._keys[i], value, measure())

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self._keys.clear()
            self.charged = 0

    def _keep(self, key: Hashable, value: object, cost: int) -> None:
        """put, with the lock held."""
        self._drop(key)
        if cost <= self.limit:
            self.entries[key] = (value, cost)
            self._keys[id(value)] = key
            self.charged += cost
        while self.charged > self.limit:
            self._drop(next(iter(self.entries)))

    def _drop(self, key: Hashable) -> None:
        """Forget the value under key, if any, with the lock held: the one
        place a value leaves the memo."""
        if (old := self.entries.pop(key, None)) is not None:
            self.charged -= old[1]
            del self._keys[id(old[0])]
