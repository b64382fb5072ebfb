"""The host fingerprint that goes with every result.

BLAS threads are read, never set: the benchmark runs BLAS at its default
so that a thread policy in the platform shows in the numbers.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np


def _openblas_threads():
    """Thread count of numpy's vendored scipy-openblas, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _fs_type(path: str) -> str:
    """Filesystem type of the mount that holds ``path``."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) > len(best):
                    best, fstype = mount_point, fields[2]
    except OSError:
        pass
    return fstype


def fingerprint(durable_dir: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "durable_fs": _fs_type(durable_dir),
    }
