"""Load masterop from this checkout's ``src`` and describe the environment."""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """masterop is missing from the checkout or resolves to another copy."""


def load_masterop():
    """Import masterop with the checkout's ``src`` first on ``sys.path``.

    The package is not installed, and a stale ``src/masterop.egg-info`` is
    tracked, so a different copy on the path must not be picked up
    silently: stop unless ``masterop.__file__`` lies under ``src/masterop``.
    """
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    try:
        import masterop
    except ImportError as exc:
        raise CheckoutError(f"cannot import masterop from {SRC}: {exc}") from exc
    where = Path(masterop.__file__).resolve()
    if (SRC / "masterop") not in where.parents:
        raise CheckoutError(f"masterop resolves to {where}, not under {SRC}")
    return masterop


def single_threaded_blas():
    """Run BLAS on one thread; call before numpy is first imported.

    The workloads are single-threaded, BLAS included: a second BLAS thread
    gains little here and doubles the pass-to-pass spread on a shared
    machine.  Child interpreters inherit the setting.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def pin_to_one_cpu():
    """Run this process and the processes it starts on one CPU, so that the
    speed probe measures the CPU the timed work runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def _git_commit():
    """HEAD of the checkout, or None unless the checkout is a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _version(dist):
    # read from metadata: importing scipy here would add its memory and
    # import time to the workload even if masterop stopped using it
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"commit": _git_commit(), "nproc": nproc,
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy")}
