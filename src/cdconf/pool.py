"""The worker threads of a detection.

``_pool_map`` runs the pieces of one pass of a detection, its strips of
rows, on at most ``threads`` and at most ``_MAX_WORKERS`` worker threads,
and never on more workers than pieces; no other work runs on workers.  A
caller that gives no ``threads`` gets ``default_threads()``, the usable
cores.  ``_workers`` is the one place that decides whether workers may run
at all: only while OpenBLAS runs one thread per call (see the package
docstring); otherwise OpenBLAS's own threads do the parallel work.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


# Most worker threads one pass runs on, whatever ``threads`` asks for.  A
# detection's worker holds one strip's buffers in both of its passes, one
# allocation by the rule of ``features._Extraction.scratch``, and nothing
# beside it, so this bounds what a pass adds to peak memory on a host with
# many cores.
_MAX_WORKERS = 8


# Where the cgroup file systems are mounted, read by ``_cpu_quota``.
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota(root: Path | None = None) -> int | None:
    """Whole CPUs the CPU quota of this process's cgroup allows, rounded up,
    or None when there is none: cgroup v2's ``cpu.max`` ("quota period", or
    "max period"), else cgroup v1's ``cpu/cpu.cfs_quota_us`` (-1 for none)
    over ``cpu/cpu.cfs_period_us``, under ``root`` (None: ``_CGROUP``)."""
    root = _CGROUP if root is None else root
    try:
        try:
            quota, period = (root / "cpu.max").read_text().split()
        except FileNotFoundError:
            quota, period = ((root / "cpu" / f"cpu.cfs_{f}_us").read_text().strip()
                             for f in ("quota", "period"))
        if quota in ("max", "-1"):
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError):
        return None


def default_threads() -> int:
    """Worker threads a detection runs on when its caller gives none: the
    cores in this process's affinity mask, but no more than a CPU quota
    allows (``_cpu_quota``)."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    quota = _cpu_quota()
    return cores if quota is None else min(cores, quota)


def _workers(threads: int | None, items: int) -> int:
    """Worker threads for ``items`` pieces of work: ``threads`` (None means
    ``default_threads()``, and below 1 counts as 1), but at most
    ``_MAX_WORKERS`` and at most ``items``.  One while
    ``OPENBLAS_NUM_THREADS`` is not "1" (NumPy was imported before cdconf,
    or the user set another value): OpenBLAS's own threads then run every
    GEMM, and workers beside them would only oversubscribe the cores."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    if threads is None:
        threads = default_threads()
    return max(1, min(threads, items, _MAX_WORKERS))


def _pool_map(fn, items: list, threads: int | None) -> list:
    """``[fn(i) for i in items]``, on ``_workers(threads, len(items))`` worker
    threads when that is above 1; the results come back in the order of
    ``items`` either way."""
    workers = _workers(threads, len(items))
    if workers == 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
