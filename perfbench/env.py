"""Locating the library in the checkout and describing the run environment."""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def pin_threads() -> int:
    """Pin ``LOGSOB_THREADS`` to the usable CPU count.

    The library's own defaults differ by module (``sde`` min(4, cpu),
    ``curvature`` min(8, cpu), ``bounds`` cpu), so the benchmark fixes one
    value for all of them.
    """
    n = len(os.sched_getaffinity(0))
    os.environ["LOGSOB_THREADS"] = str(n)
    return n


def seconds_since_start() -> float:
    """Seconds since this process started, from the kernel's record of its
    start time (clock-tick resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_logsob():
    """Import ``logsob`` from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "logsob" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"{init.relative_to(ROOT)} not found; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import logsob
    import logsob.cli  # noqa: F401  (cli is not imported by the package itself)

    if Path(logsob.__file__).resolve() != init.resolve():
        raise SetupError(f"imported logsob from {logsob.__file__}, expected {init}")
    return logsob


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "LOGSOB_THREADS": os.environ.get("LOGSOB_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }
