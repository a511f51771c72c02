"""Worker count shared by the threaded SDE path blocks and --emit-paths norms."""

from __future__ import annotations

import os

DEFAULT_MAX_WORKERS = 4


def worker_count() -> int:
    """Threads to use: ``LOGSOB_THREADS`` when it is a positive integer,
    otherwise ``min(4, cpu_count)``.

    A value that is not a positive integer is ignored rather than clamped,
    so a typo falls back on the default instead of running single-threaded.
    """
    env = os.environ.get("LOGSOB_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n >= 1:
            return n
    return min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
