"""The machine and build a result set was measured on."""

from __future__ import annotations

import os
import platform

# Fields that must agree before two result sets, or a result and the
# recorded digests, may be compared.  Load average is recorded but may vary.
BUILD_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "simd")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    """nproc, CPU model, Python, numpy with its BLAS build and SIMD
    extensions, and the current load average."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "simd": ",".join(simd.get("found", [])),
        "loadavg": list(os.getloadavg()),
    }


def differences(a: dict, b: dict) -> list:
    """The build fields on which two environment records disagree."""
    return [f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
            for key in BUILD_KEYS if a.get(key) != b.get(key)]
