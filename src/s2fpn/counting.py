"""Thread-local cost-counter hook shared by ops (producers) and analysis."""

from __future__ import annotations

import threading

_local = threading.local()


def current_counter():
    return getattr(_local, "counter", None)


def set_counter(counter) -> None:
    _local.counter = counter
