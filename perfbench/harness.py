"""Shared machinery of the repository benchmark.

Everything here runs in the benchmark's own process, outside the program
under test: preparing the environment of a checkout, building the
multinomial kernel once (untimed), timing fresh-interpreter set-up,
normalising wall time by the CPU speed measured while it ran, and stamping
provenance.

Why normalise: on a small shared VM the same code runs up to ~1.7x slower
in some periods than in others; the speed changes within seconds, differs
between the CPUs, and differs between kinds of code (interpreted Python
and numeric C code slow down by different amounts).  Single-threaded work
therefore runs pinned to one CPU (children inherit the pinning) and the
2-worker fleet on all CPUs, while a small sampler process times three fixed
probes on the same CPUs every 25 ms (about 3% of a CPU): an interpreted
Python loop, vectorised NumPy arithmetic, and NumPy binomial draws.  Each
workload names the probes that resemble its work.  A unit of work is
reported in "reference seconds": raw seconds x the probes' reference time
(``PROBE_REF_S``) / their median time sampled during the unit.  Raw seconds
are recorded next to them in the result file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
KERNEL_DIR = WORK / "kernel"
TMP_DIR = WORK / "tmp"
RESULTS_DIR = WORK / "results"

#: Nominal duration of each sampler probe; reference seconds are seconds on
#: a machine on which the probes take exactly this long.
PROBE_REF_S = {"python": 0.0005, "vector": 0.0001, "binomial": 0.0001}
PROBES = tuple(PROBE_REF_S)

#: Environment that would change what the program does or where it writes.
_SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_TRACE_PARENT", "REPRO_FAULT_PLAN",
                 "REPRO_MULTINOMIAL_KERNEL", "PYTHONSTARTUP",
                 "PYTHONDONTWRITEBYTECODE")


class CheckoutError(RuntimeError):
    """The benchmark was started outside a checkout of the repository."""


def prepare(startup_delay: float = 0.0) -> None:
    """Point this process and every child at the checkout's own files.

    ``src/`` goes on ``PYTHONPATH`` (children) and ``sys.path`` (this
    process); temporary files and the kernel build land under
    ``.perfbench/``.  A non-zero ``startup_delay`` (the sensitivity
    self-test) puts a ``sitecustomize`` that sleeps that long at the front
    of the children's ``PYTHONPATH``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no repository sources under {SRC}; run from the root of a "
            f"checkout")
    for path in (KERNEL_DIR, TMP_DIR, RESULTS_DIR):
        path.mkdir(parents=True, exist_ok=True)
    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    children_path = [str(SRC)]
    if startup_delay:
        inject = WORK / "inject"
        inject.mkdir(exist_ok=True)
        (inject / "sitecustomize.py").write_text(
            f"import time\ntime.sleep({startup_delay!r})\n")
        children_path.insert(0, str(inject))
    os.environ["PYTHONPATH"] = os.pathsep.join(children_path)
    os.environ["TMPDIR"] = str(TMP_DIR)
    os.environ["REPRO_MULTINOMIAL_BUILD_DIR"] = str(KERNEL_DIR)
    import tempfile

    tempfile.tempdir = None   # re-read TMPDIR
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_kernel() -> str:
    """Build (or reuse) the C kernel under ``.perfbench/kernel``; its id.

    Runs once per benchmark process before anything is timed; children
    inherit ``REPRO_MULTINOMIAL_BUILD_DIR`` and load the same shared object.
    """
    from repro.engine._multinomial import multinomial_kernel_id

    return multinomial_kernel_id()


# ---------------------------------------------------------------------- #
# CPU placement and speed sampling
# ---------------------------------------------------------------------- #
ALL_CPUS: Tuple[int, ...] = tuple(sorted(os.sched_getaffinity(0)))
#: Single-threaded work (and every child it starts) runs on this CPU.
PINNED: Tuple[int, ...] = (ALL_CPUS[-1],)


def pin(cpus: Sequence[int]) -> None:
    os.sched_setaffinity(0, set(cpus))


_SAMPLER = """
import os, sys, time
import numpy as np
cpus = [int(c) for c in sys.argv[1].split(",")]
a = np.arange(4096, dtype=np.float64)
rng = np.random.default_rng(0)
i = 0
while True:
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    i += 1
    t0 = time.perf_counter()
    acc = 0
    for k in range(4000):
        acc += k * k % 7
    t1 = time.perf_counter()
    for _ in range(8):
        b = np.sqrt(a * a + 1.0)
    t2 = time.perf_counter()
    c = rng.binomial(1000, 0.3, size=2000)
    t3 = time.perf_counter()
    sys.stdout.write(f"{(t0 + t3) / 2} {t1 - t0} {t2 - t1} {t3 - t2}\\n")
    sys.stdout.flush()
    time.sleep(0.025)
"""


class SpeedSampler:
    """A child process timing the three probes on ``cpus`` every 25 ms.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    sample timestamps line up with the sections this process times.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        #: (timestamp, {probe: seconds})
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SAMPLER, ",".join(map(str, cpus))],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.wait_until(time.perf_counter())

    def _read(self) -> None:
        for line in self._proc.stdout:
            at, *times = map(float, line.split())
            self.samples.append((at, dict(zip(PROBES, times))))

    def wait_until(self, moment: float, timeout: float = 2.0) -> None:
        """Block until a sample taken after ``moment`` has arrived."""
        deadline = time.perf_counter() + timeout
        while not (self.samples and self.samples[-1][0] > moment):
            if time.perf_counter() > deadline:
                raise RuntimeError("CPU-speed sampler stopped reporting")
            time.sleep(0.005)

    def probe_time(self, sections: Sequence[Tuple[float, float]],
                   probes: Sequence[str]) -> float:
        """Median over the samples taken during ``sections`` (widened for
        sections too short to hold three) of the summed ``probes`` times."""
        self.wait_until(max(b for _, b in sections))
        for pad in (0.0, 0.1, 0.5):
            inside = [sum(times[p] for p in probes)
                      for at, times in self.samples
                      if any(a - pad <= at <= b + pad for a, b in sections)]
            if len(inside) >= 3:
                break
        return statistics.median(inside)

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._reader.join()

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Clock:
    """Times sections of work on ``cpus``, grouped into units.

    A unit is closed by :meth:`end_unit`; :meth:`results` turns each unit
    into reference seconds with the time of ``probes`` that ``sampler`` saw
    during its sections (raw seconds when there is no sampler).
    """

    def __init__(self, cpus: Sequence[int],
                 sampler: Optional[SpeedSampler] = None,
                 probes: Sequence[str] = PROBES) -> None:
        self.cpus = tuple(cpus)
        self.sampler = sampler
        self.probes = tuple(probes)
        self.sections: List[Tuple[float, float]] = []
        self.units: List[List[Tuple[float, float]]] = []
        self._open: List[Tuple[float, float]] = []

    def time(self, fn: Callable[[], object]) -> Tuple[object, float]:
        """Run ``fn``; returns ``(result, raw seconds)``."""
        pin(self.cpus)
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.sections.append((t0, t1))
        self._open.append((t0, t1))
        return out, t1 - t0

    def end_unit(self) -> None:
        if self._open:
            self.units.append(self._open)
            self._open = []

    def measure(self, sections: Sequence[Tuple[float, float]]
                ) -> Tuple[float, float, float]:
        """Reference seconds, raw seconds and sampled probe time of
        ``sections`` taken together."""
        seconds = sum(b - a for a, b in sections)
        nominal = sum(PROBE_REF_S[p] for p in self.probes)
        probe = self.sampler.probe_time(sections, self.probes) \
            if self.sampler else nominal
        return seconds * nominal / probe, seconds, probe

    def results(self) -> Tuple[List[float], List[float], List[float]]:
        """Per unit: reference seconds, raw seconds, sampled probe time."""
        self.end_unit()
        measured = [self.measure(unit) for unit in self.units]
        ref, raw, loops = (list(column) for column in zip(*measured))
        return ref, raw, loops


# ---------------------------------------------------------------------- #
# fresh-interpreter set-up
# ---------------------------------------------------------------------- #
def run_child(args: Sequence[str], timeout: float = 120.0
              ) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion (output captured)."""
    return subprocess.run(list(args), capture_output=True, text=True,
                          timeout=timeout, cwd=str(ROOT))


def setup_probe(modules: Sequence[str]) -> List[str]:
    """The command of one set-up probe: import ``modules``, resolve the
    kernel, print its id."""
    imports = "; ".join(f"import {m}" for m in modules)
    code = (f"{imports}; from repro.engine._multinomial import "
            f"multinomial_kernel_id as k; print(k())")
    return [sys.executable, "-c", code]


def measure_setup(modules: Sequence[str], kernel_id: str, repeats: int
                  ) -> Tuple[List[float], List[float], List[str]]:
    """Time ``repeats`` fresh set-ups on the pinned CPU (normalised by the
    Python probe: start-up is interpreter work).

    Returns reference seconds, raw seconds, and problems found (a probe
    that failed or resolved another kernel than the run's).
    """
    cmd = setup_probe(modules)
    problems: List[str] = []
    with SpeedSampler(PINNED) as sampler:
        clock = Clock(PINNED, sampler, probes=("python",))
        for _ in range(repeats):
            proc, _raw = clock.time(lambda: run_child(cmd))
            clock.end_unit()
            kid = proc.stdout.strip().splitlines()[-1:] if proc.stdout else []
            if proc.returncode != 0:
                problems.append(f"set-up probe exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
            elif kid != [kernel_id]:
                problems.append(f"set-up probe resolved kernel {kid}, "
                                f"run kernel is {kernel_id!r}")
        ref, raw, _loops = clock.results()
    return ref, raw, problems


# ---------------------------------------------------------------------- #
# process facts and provenance
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def stop_helper_processes() -> None:
    """Stop the helper process the spawn start method leaves running."""
    import multiprocessing.resource_tracker as tracker

    stop = getattr(tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """sha256 over the program's sources (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, kernel_id: str) -> Dict[str, object]:
    import numpy as np

    status = _git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_used": list(ALL_CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_id": kernel_id,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "probe_ref_s": PROBE_REF_S,
    }


def write_result(name: str, payload: Dict[str, object]) -> Path:
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path
