"""The one bounded memo class, behind the engines of `cobweb.poset` and the
primitive parts of `cobweb._parts`."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable


class Memo:
    """Values by key, each with the cost its owner charges it, least recently
    used first: the charged total stays at or below `limit`, and a value that
    costs more is not kept.  One lock, `lock`, guards every update, so threads
    may share a memo; callers build their values outside it.  `entries` maps
    each key to its (value, cost), in order of use."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.charged = 0
        self.entries: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self.lock = threading.Lock()

    def get(self, key: Hashable) -> object | None:
        """The value kept under key, now the most recent, or None."""
        with self.lock:
            if (kept := self.entries.get(key)) is None:
                return None
            self.entries.move_to_end(key)
            return kept[0]

    def put(self, key: Hashable, value: object, cost: int) -> None:
        """Keep value under key as the most recent, in place of any value
        there, unless it costs more than the limit: then neither is kept."""
        with self.lock:
            self._keep(key, value, cost)

    def recharge(self, value: object, cost: int) -> None:
        """Charge a kept value again, say once it has grown; a value no longer
        kept stays out."""
        with self.lock:
            key = next((k for k, (v, _) in self.entries.items() if v is value), None)
            if key is not None:
                self._keep(key, value, cost)

    def clear(self) -> None:
        with self.lock:
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
            self.charged -= self.entries.popitem(last=False)[1][1]
