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
    to its (value, cost), in order of use: a plain dict, re-inserted on use."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.charged = 0
        self.entries: dict[Hashable, tuple[object, int]] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> object | None:
        """The value kept under key, now the most recent, or None."""
        with self._lock:
            if (kept := self.entries.pop(key, None)) is None:
                return None
            self.entries[key] = kept
            return kept[0]

    def put(self, key: Hashable, value: object, cost: int) -> None:
        """Keep value under key as the most recent, in place of any value
        there, unless it costs more than the limit: then neither is kept."""
        with self._lock:
            self._keep(key, value, cost)

    def recharge(self, key: Hashable, value: object, measure: Callable[[], int]) -> None:
        """Charge value again, say once it has grown, by measure(), called
        under the lock, so a charge is never older than one made by a thread
        that grew the value later; only while key holds this very value, so a
        value not kept (say, under key None) stays out."""
        with self._lock:
            kept = self.entries.get(key)
            if kept is not None and kept[0] is value:
                self._keep(key, value, measure())

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.charged = 0

    def _keep(self, key: Hashable, value: object, cost: int) -> None:
        """put, with the lock held."""
        old = self.entries.pop(key, None)
        if old is not None:
            self.charged -= old[1]
        if cost > self.limit:
            return
        self.entries[key] = (value, cost)
        self.charged += cost
        while self.charged > self.limit:
            self.charged -= self.entries.pop(next(iter(self.entries)))[1]
