"""The benchmark process's Ray session, child processes and memory.

The Ray session keeps its files under ``.perfbench/ray`` in the checkout
and is sized to the CPUs this process may run on.  Every process the
session starts is waited for on shutdown, and peak memory is read from
``/proc`` for this process plus its Ray worker processes.
"""

from __future__ import annotations

import logging
import os
import platform
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# AF_UNIX socket paths are limited to 107 bytes; Ray puts
# "session_<timestamp>_<pid>/sockets/plasma_store" (about 62 bytes) under
# its temp dir
_MAX_TEMP_DIR = 44


def nproc() -> int:
    """What coreutils ``nproc`` prints: the CPUs this process may run on,
    lowered by ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    try:
        omp = int(os.environ.get("OMP_NUM_THREADS", "").split(",")[0])
    except ValueError:
        return n
    return min(n, omp) if omp > 0 else n


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    temp = ROOT / ".perfbench" / "ray"
    kw = {}
    if len(str(temp)) <= _MAX_TEMP_DIR:
        kw["_temp_dir"] = str(temp)
    else:
        print(f"perfbench: checkout path too long for Ray sockets under "
              f"{temp}; using Ray's default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 2**20, **kw)
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    DataContext.get_current().enable_progress_bars = False


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    kids, out, todo = _children(), [], [os.getpid()]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _state(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live Ray worker
    process it started (summed per-process peaks)."""
    kb = _hwm_kb(os.getpid())
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            kb += _hwm_kb(pid)
    return kb / 1024


def stop_ray(timeout: float = 30.0) -> None:
    """Shut the session down and wait until every process it started has
    ended, killing stragglers after ``timeout`` seconds."""
    import ray

    pids = descendants()
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        alive = []
        for pid in pids:
            st = _state(pid)
            if st == "Z":
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
            elif st is not None:
                alive.append(pid)
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {alive} outlived SIGKILL")
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.05)
        pids = alive


def box() -> dict:
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "ram_gb": round(mem_kb / 2**20, 1),
            "cpu": cpu, "python": platform.python_version(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__}
