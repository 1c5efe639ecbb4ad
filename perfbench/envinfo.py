"""The environment record printed with every result."""

import ctypes
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

# A run counts as contended when other processes used more than this share
# of one CPU while it ran.
CONTENDED_SHARE = 0.1


def _loadavg():
    return Path("/proc/loadavg").read_text(encoding="ascii").split()[:4]


def _busy_seconds():
    """CPU seconds the whole machine has spent busy, from /proc/stat."""
    fields = Path("/proc/stat").read_text(encoding="ascii").splitlines()[0].split()[1:]
    user, nice, system, _idle, _iowait, irq, softirq, steal = (int(v) for v in fields[:8])
    return (user + nice + system + irq + softirq + steal) / os.sysconf("SC_CLK_TCK")


def _own_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _commit(root):
    """HEAD's commit read from .git without running git, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS itself, or None."""
    for line in Path("/proc/self/maps").read_text(encoding="ascii", errors="replace").splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower():
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _src_lines(root):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


class EnvRecord:
    """Versions and machine state, taken when a run starts and when it ends."""

    def __init__(self, root, nproc):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        self.fields = {
            "commit": _commit(root),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": _blas_threads(),
            "nproc": nproc,
            "src_lines": _src_lines(root),
            "loadavg_before": _loadavg(),
        }
        self._start = (time.monotonic(), _busy_seconds(), _own_seconds())

    def finish(self):
        """Adds the end-of-run fields and returns the whole record."""
        wall = time.monotonic() - self._start[0]
        busy = _busy_seconds() - self._start[1]
        own = _own_seconds() - self._start[2]
        other = max(busy - own, 0.0)
        self.fields.update({
            "loadavg_after": _loadavg(),
            "other_cpu_s": round(other, 3),
            "contended": other > CONTENDED_SHARE * wall,
        })
        return self.fields


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
