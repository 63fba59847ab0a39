"""Feature-detected seam for exact-multinomial sampling.

Every fast path in the repository bottoms out in drawing multinomial flows
(at m = 64 a dense round costs ~R·m² sequential binomial draws inside
``Generator.multinomial``, so on NumPy the fused engine's win over the
looped one shrinks to a few ×).  This module is the single seam the
occupancy engines sample through, with two interchangeable *backends*, and
one count-space sampler each:

``numpy``
    :func:`scatter_column_sums_batch`: ``Generator.multinomial`` over a
    dense ``(R, m, m)`` outcome tensor, bit-for-bit the code the engines ran
    before the seam existed, so every seed-pinned golden result stays
    valid, and the trusted reference the compiled backend is certified
    against.

``compiled``
    :func:`sample_scatter_banded`: the pooled *banded* walker of the C
    kernel ``_mnk.c``, compiled on first use with the system C compiler and
    loaded via ctypes (provider ``cc``).  It exploits the band structure
    every built-in occupancy rule shares: O(m) binomial draws per run
    instead of O(m²), and no m×m matrix (see ``_mnk.c``).

Selection: explicit ``backend=`` argument > :func:`set_multinomial_backend`
> the ``REPRO_MULTINOMIAL_KERNEL`` environment variable > ``auto``.  Values:
``auto`` (compiled when available, else numpy), ``compiled``, ``numpy``, and
the provider pin ``cc``.  Feature detection runs at *first sampling call*,
never at import, and catches any exception — a missing, broken, or
ABI-mismatched provider degrades to NumPy with one structured
:class:`MultinomialKernelWarning` per requested mode per process (``auto``
included: ``auto`` and then ``compiled`` warn twice, a repeated ``auto``
not again).

A direct call of :func:`sample_scatter_banded` resolves the backend on every
call; the NumPy-only samplers (:func:`sample_flows`,
:func:`scatter_column_sums`, :func:`scatter_column_sums_batch`) resolve
none.  A count-space loop (``repro.engine.batch._occupancy_loop``) resolves
the backend once, before its first round, into a :class:`_BoundKernel` that
every round then samples through: the provider's C entry points are bound
to raw addresses (``c_void_p`` / ``c_int64`` argtypes) when the provider is
detected, and the loop owns the kernel's seed-state scratch.  The
raw-address call keeps what ``ndpointer`` argtypes guaranteed: every array
handed to C was allocated here with the right dtype, layout and shape, or
is checked for dtype, ``C_CONTIGUOUS`` and shape first, and a wrong one is
refused before C runs.

Reproducibility contract: seed-exact **within** a backend.  The compiled
provider bridges the caller's ``numpy.random.Generator`` by drawing one
64-bit seed per kernel call, so a fixed seed gives identical results on the
same backend, while the two backends produce different — but identically
distributed — streams (certified by ``tests/test_engine_differential.py``
and ``tests/test_multinomial_seam.py``).  The resolved kernel id is stamped
into store provenance so every cached cell is attributable.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.robustness.faults import fault_point

__all__ = [
    "ENV_VAR",
    "BACKEND_CHOICES",
    "DRAW_STATS",
    "KernelInfo",
    "MultinomialKernelWarning",
    "multinomial_kernel_id",
    "resolve_multinomial_backend",
    "set_multinomial_backend",
    "sample_flows",
    "scatter_column_sums",
    "scatter_column_sums_batch",
    "sample_scatter_banded",
]

ENV_VAR = "REPRO_MULTINOMIAL_KERNEL"
BUILD_DIR_ENV_VAR = "REPRO_MULTINOMIAL_BUILD_DIR"
BACKEND_CHOICES = ("auto", "compiled", "numpy", "cc")

#: Per-process tallies of draws through this seam.  Kept as plain dict
#: increments (no telemetry check) because the seam is the innermost hot
#: path; :func:`repro.experiments.runner.run_cell` snapshots deltas into
#: the trace when tracing is armed.
DRAW_STATS = {"calls": 0, "rows": 0}

#: Must match MNK_ABI_VERSION in _mnk.c; a stale shared object is rebuilt.
_ABI_VERSION = 2

class MultinomialKernelWarning(UserWarning):
    """A requested compiled multinomial backend was unavailable; NumPy ran."""


@dataclass(frozen=True)
class KernelInfo:
    """The outcome of one backend resolution."""

    requested: str   #: what was asked for ("auto", "compiled", ...)
    resolved: str    #: "compiled" or "numpy"
    provider: str    #: "cc" or "numpy"
    detail: str = ""  #: per-provider failure summary when a fallback happened

    @property
    def kernel_id(self) -> str:
        """Stable provenance string: ``numpy`` or ``compiled:cc``."""
        if self.resolved == "numpy":
            return "numpy"
        return f"compiled:{self.provider}"


# ---------------------------------------------------------------------- #
# the cc provider: build _mnk.c on first use, load via ctypes
# ---------------------------------------------------------------------- #
_SRC = Path(__file__).with_name("_mnk.c")

#: argtypes of the raw-address binding: array arguments are data addresses
_ADDR = ctypes.c_void_p
_SIZE = ctypes.c_int64
_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


def _address(a: np.ndarray, dtype: np.dtype, shape: tuple) -> int:
    """Where ``a``'s data starts, once ``a`` is checked to be what C reads.

    The check ``ndpointer`` argtypes made per call: a ``dtype`` array,
    C-contiguous, of ``shape``.  Anything else is refused here, never
    passed to C.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and a.shape == shape):
        raise ValueError(
            f"kernel argument must be a C-contiguous {dtype} array of shape "
            f"{shape}, got {getattr(a, 'dtype', type(a).__name__)} "
            f"{getattr(a, 'shape', '')}")
    try:   # about three times cheaper than a.ctypes.data
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):   # a read-only or an empty array
        return a.ctypes.data


class _SeedState:
    """The kernel's four-word xoshiro state, allocated here, and its address."""

    __slots__ = ("words", "at")

    def __init__(self) -> None:
        self.words = np.empty(4, dtype=np.uint64)
        self.at = self.words.ctypes.data


class _CcKernel:
    """ctypes wrapper around the compiled ``_mnk`` shared object."""

    NAME = "cc"

    def __init__(self) -> None:
        # fault seam: an injected failure here is indistinguishable from a
        # real broken toolchain, so it exercises the production fallback
        # (detection → NumPy + one MultinomialKernelWarning)
        fault_point("kernel.compile", provider=self.NAME)
        lib = ctypes.CDLL(str(self._ensure_built()))
        lib.mnk_abi_version.restype = ctypes.c_int64
        lib.mnk_abi_version.argtypes = []
        abi = int(lib.mnk_abi_version())
        if abi != _ABI_VERSION:
            raise RuntimeError(
                f"_mnk ABI mismatch: shared object reports {abi}, "
                f"seam expects {_ABI_VERSION}")
        # bound once, here: a call passes addresses (see _address), so no
        # argument is converted per array and call
        self._seed = lib.mnk_seed_state
        self._seed.restype = None
        self._seed.argtypes = [ctypes.c_uint64, _ADDR]
        self._banded = lib.mnk_sample_banded
        self._banded.restype = None
        self._banded.argtypes = [_ADDR, _ADDR, _ADDR, _ADDR, _SIZE, _SIZE,
                                 _ADDR, _ADDR, _ADDR]
        self._lib = lib
        self._smoke_test()

    # -- build ---------------------------------------------------------- #
    @staticmethod
    def _build_dir() -> Path:
        override = os.environ.get(BUILD_DIR_ENV_VAR)
        if override:
            return Path(override)
        return _SRC.parent / "_build"

    def _ensure_built(self) -> Path:
        if not _SRC.is_file():
            raise FileNotFoundError(f"kernel source missing: {_SRC}")
        build_dir = self._build_dir()
        try:
            build_dir.mkdir(parents=True, exist_ok=True)
            probe = build_dir / ".writable"
            probe.touch()
            probe.unlink()
        except OSError:
            build_dir = Path(tempfile.mkdtemp(prefix="repro_mnk_"))
        so_path = build_dir / f"_mnk_abi{_ABI_VERSION}.so"
        if so_path.is_file() and so_path.stat().st_mtime >= _SRC.stat().st_mtime:
            return so_path
        cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc") \
            or shutil.which("clang")
        if cc is None:
            raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
        tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
        base = [cc, "-O3", "-shared", "-fPIC", "-o", str(tmp), str(_SRC), "-lm"]
        for extra in (["-march=native"], []):
            cmd = base[:2] + extra + base[2:]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                break
        else:
            raise RuntimeError(
                f"compiling {_SRC.name} failed: {proc.stderr.strip()[:500]}")
        os.replace(tmp, so_path)  # atomic: concurrent builders race safely
        return so_path

    # -- draws ---------------------------------------------------------- #
    # A draw checks every caller array before any C call, seeds the
    # kernel's state from ``seed`` (in ``state``, or a fresh one it holds
    # until C returns), and writes into an ``out`` it allocates.
    def sample_banded(self, counts: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, diag: np.ndarray, seed: int,
                      state: Optional[_SeedState] = None) -> np.ndarray:
        R, m = shape = counts.shape
        args = (_address(counts, _I64, shape), _address(lo, _F64, shape),
                _address(hi, _F64, shape), _address(diag, _F64, shape))
        out = np.empty(shape, dtype=np.int64)
        state = state or _SeedState()
        self._seed(int(seed) & (2**64 - 1), state.at)
        self._banded(*args, R, m, state.at, state.at, _address(out, _I64, shape))
        return out

    # -- detection smoke test ------------------------------------------- #
    def _smoke_test(self) -> None:
        c = np.array([[5, 0, 7]], dtype=np.int64)
        z = np.zeros((1, 3), dtype=np.float64)
        stay = self.sample_banded(c, z, z, np.ones((1, 3)), 12345)
        if not np.array_equal(stay, c):
            raise RuntimeError("cc sample_banded failed its stay smoke test")
        third = np.full((1, 3), 1.0 / 3.0)
        mix = self.sample_banded(c * 200, third, third, third, 99)
        if mix.sum() != 2400 or mix.min() < 0:
            raise RuntimeError("cc sample_banded failed its sum smoke test")


_PROVIDER_FACTORIES = {"cc": _CcKernel}

# ---------------------------------------------------------------------- #
# detection + resolution state
# ---------------------------------------------------------------------- #
_lock = threading.Lock()
_providers: dict[str, object] = {}      # name -> provider instance or None
_provider_errors: dict[str, str] = {}
_configured: Optional[str] = None       # set_multinomial_backend override
_warned: set = set()                    # requested modes already warned for


def _get_provider(name: str):
    """Build-or-fetch a provider; any exception marks it unavailable."""
    import time as _time

    with _lock:
        if name in _providers:
            return _providers[name]
        t0 = _time.perf_counter()
        try:
            provider = _PROVIDER_FACTORIES[name]()
        except Exception as exc:  # detection must never propagate
            _providers[name] = None
            _provider_errors[name] = f"{type(exc).__name__}: {exc}"
            _trace_detection(name, _time.perf_counter() - t0, ok=False)
            return None
        _providers[name] = provider
        _trace_detection(name, _time.perf_counter() - t0, ok=True)
        return provider


def _trace_detection(provider: str, elapsed: float, ok: bool) -> None:
    """Record one provider detection/build in the trace (cold path only)."""
    try:
        from repro.obs import trace as obs_trace
        from repro.obs import metrics as obs_metrics
    except ImportError:   # pragma: no cover — partial install
        return
    if not obs_trace.enabled():
        return
    obs_metrics.observe("kernel.detect_s", elapsed, provider=provider)
    obs_trace.event("kernel.resolved", provider=provider, ok=ok,
                    detail="" if ok else _provider_errors.get(provider, ""))


def set_multinomial_backend(backend: Optional[str]) -> None:
    """Process-wide backend override (above env, below explicit arguments).

    ``None`` clears the override, restoring env/auto resolution.
    """
    global _configured
    if backend is not None and backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown multinomial backend {backend!r}; choose from "
            f"{BACKEND_CHOICES}")
    _configured = backend


def resolve_multinomial_backend(backend: Optional[str] = None) -> KernelInfo:
    """Resolve a backend request to the kernel that will actually run.

    Precedence: ``backend`` argument > :func:`set_multinomial_backend` >
    ``$REPRO_MULTINOMIAL_KERNEL`` > ``auto``.  Unavailable compiled
    providers degrade to NumPy with one :class:`MultinomialKernelWarning`
    per requested mode per process.
    """
    requested = (backend or _configured or os.environ.get(ENV_VAR) or "auto")
    requested = requested.strip().lower()
    if requested not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown multinomial backend {requested!r} "
            f"(from {ENV_VAR}?); choose from {BACKEND_CHOICES}")
    if requested == "numpy":
        return KernelInfo(requested, "numpy", "numpy")
    for name in _PROVIDER_FACTORIES:
        if _get_provider(name) is not None:
            return KernelInfo(requested, "compiled", name)
    detail = "; ".join(
        f"{n}: {_provider_errors.get(n, 'unavailable')}"
        for n in _PROVIDER_FACTORIES)
    if requested not in _warned:
        _warned.add(requested)
        warnings.warn(
            f"multinomial kernel {requested!r} has no working compiled "
            f"provider ({detail}); falling back to the NumPy backend. "
            f"Pin {ENV_VAR}=numpy to silence this.",
            MultinomialKernelWarning, stacklevel=3)
    return KernelInfo(requested, "numpy", "numpy", detail=detail)


def multinomial_kernel_id(backend: Optional[str] = None) -> str:
    """Provenance string of the resolved kernel (``numpy`` / ``compiled:*``)."""
    return resolve_multinomial_backend(backend).kernel_id


class _BoundKernel:
    """A backend resolved once, for every draw of one count-space loop.

    ``info`` is the resolution, ``provider`` the detected compiled provider
    with its bound entry points (``None`` on numpy), and ``state`` the
    kernel's seed-state scratch.  A loop builds one before its first round
    and drops it with the loop, so two loops in two threads never share a
    scratch; a direct :func:`sample_scatter_banded` call builds its own.
    """

    __slots__ = ("info", "provider", "state")

    def __init__(self, backend: Optional[str] = None) -> None:
        self.info = resolve_multinomial_backend(backend)
        self.provider = (_providers[self.info.provider]
                         if self.info.resolved == "compiled" else None)
        self.state = None if self.provider is None else _SeedState()


def _reset_for_testing() -> None:
    """Clear detection caches and warnings (test helper, not public API)."""
    global _configured
    with _lock:
        _providers.clear()
        _provider_errors.clear()
    _warned.clear()
    _configured = None


# ---------------------------------------------------------------------- #
# RNG bridging
# ---------------------------------------------------------------------- #
_U64_MAX = np.iinfo(np.uint64).max


def _draw_seed(rng: np.random.Generator) -> int:
    """One 64-bit seed from the caller's Generator: the whole compiled call
    consumes exactly one draw of the NumPy stream, whatever its size."""
    return int(rng.integers(0, _U64_MAX, dtype=np.uint64, endpoint=True))


# ---------------------------------------------------------------------- #
# sampling operations
# ---------------------------------------------------------------------- #
def sample_flows(counts: np.ndarray, pvals: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Row-wise multinomial flows: ``out[i] ~ Multinomial(counts[i], pvals[i])``.

    ``counts`` is ``(N,)``, ``pvals`` is ``(N, m)``.  NumPy only: verbatim
    ``rng.multinomial(counts, pvals)``.
    """
    DRAW_STATS["calls"] += 1
    DRAW_STATS["rows"] += int(np.asarray(pvals).shape[0])
    return rng.multinomial(counts, pvals).astype(np.int64, copy=False)


def scatter_column_sums(counts: np.ndarray, Q: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Column sums of one run's flows: the new occupancy after a scatter.

    The ``R = 1`` slice of :func:`scatter_column_sums_batch` (one seam call,
    the same draws).
    """
    counts = np.asarray(counts)
    return scatter_column_sums_batch(counts[None, :], np.asarray(Q)[None], rng)[0]


def scatter_column_sums_batch(counts: np.ndarray, Q: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Batched scatter column sums: ``(R, m)`` counts through ``(R, m, m)``.

    The numpy backend's count-space sampler.  It draws only the occupied
    (run, bin) pairs, so seeded results match the pre-seam engines bit for
    bit.
    """
    DRAW_STATS["calls"] += 1
    DRAW_STATS["rows"] += int(np.asarray(counts).size)
    R, m = counts.shape
    nz_run, nz_bin = np.nonzero(counts > 0)
    if nz_run.shape[0] >= R * m:
        flows = rng.multinomial(counts.reshape(R * m), Q.reshape(R * m, m))
        return flows.reshape(R, m, m).sum(axis=1, dtype=np.int64)
    # empty bins scatter nothing: draw only the occupied (run, bin) pairs
    # and segment-sum the flows back per run (nz_run is sorted row-major,
    # so each run's pairs are contiguous)
    out = np.zeros((R, m), dtype=np.int64)
    if nz_run.shape[0] == 0:
        return out
    flows = rng.multinomial(counts[nz_run, nz_bin], Q[nz_run, nz_bin])
    starts = np.flatnonzero(np.r_[True, np.diff(nz_run) > 0])
    out[nz_run[starts]] = np.add.reduceat(flows, starts, axis=0)
    return out


def _profile(p: np.ndarray, R: int, m: int) -> np.ndarray:
    """A band profile as the ``(R, m)`` C-contiguous float64 array C reads;
    one that already is one is used as is."""
    if (isinstance(p, np.ndarray) and p.shape == (R, m) and p.dtype == _F64
            and p.flags.c_contiguous):
        return p
    return np.ascontiguousarray(np.broadcast_to(p, (R, m)), dtype=np.float64)


def sample_scatter_banded(counts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          diag: np.ndarray, rng: np.random.Generator,
                          backend: Optional[str] = None, *,
                          _kernel: Optional[_BoundKernel] = None) -> np.ndarray:
    """Scatter through a banded outcome matrix with O(m) draws per run.

    The compiled backend's count-space sampler.  ``counts`` is ``(R, m)``;
    ``lo``/``hi``/``diag`` are the band profiles (``(m,)`` or ``(R, m)``),
    defining ``Q[a, b] = lo[b]`` below the diagonal, ``hi[b]`` above and
    ``diag[a]`` on it, up to per-row normalization (which cancels out of
    every sampled ratio).  Returns the new ``(R, m)`` occupancy — the flow
    tensor is never formed.  Exact in law; see ``_mnk.c`` for the
    pooled-hazard-walk argument.  ``backend`` picks the walker: the C one,
    or on ``numpy`` the NumPy reference :func:`_banded_numpy`.  ``_kernel``
    is a count-space loop's backend, resolved once for all its rounds.
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    R, m = counts.shape
    DRAW_STATS["calls"] += 1
    DRAW_STATS["rows"] += int(counts.size)
    lo, hi, diag = _profile(lo, R, m), _profile(hi, R, m), _profile(diag, R, m)
    kernel = _kernel or _BoundKernel(backend)
    if kernel.provider is None:
        return _banded_numpy(counts, lo, hi, diag, rng)
    return kernel.provider.sample_banded(counts, lo, hi, diag, _draw_seed(rng),
                                         kernel.state)


def _banded_numpy(counts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  diag: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """NumPy reference of the banded pooled sampler (vectorized over runs).

    Same law as the C implementation (not the same bit stream); the
    engines scatter on NumPy through :func:`scatter_column_sums_batch`, so
    this exists as the independently-written cross-check the property tests
    compare against.
    """
    R, m = counts.shape
    loc = np.clip(lo, 0.0, None)
    hic = np.clip(hi, 0.0, None)
    dc = np.clip(diag, 0.0, None)
    Lo = np.cumsum(loc, axis=1)
    Hi = np.cumsum(hic[:, ::-1], axis=1)[:, ::-1]
    zeros = np.zeros((R, 1))
    wB = np.concatenate([zeros, Lo[:, :-1]], axis=1)
    wA = np.concatenate([Hi[:, 1:], zeros], axis=1)
    s = wB + dc + wA

    pB = np.divide(wB, s, out=np.zeros_like(s), where=s > 0)
    below = rng.binomial(counts, pB)
    rest = counts - below
    dA = dc + wA
    pA = np.divide(wA, dA, out=np.zeros_like(dA), where=dA > 0)
    above = rng.binomial(rest, pA)
    out = (rest - above).astype(np.int64)

    pending = np.zeros(R, dtype=np.int64)
    for b in range(m - 2, -1, -1):
        pending += below[:, b + 1]
        hz = np.divide(loc[:, b], Lo[:, b],
                       out=np.ones(R), where=Lo[:, b] > 0)
        land = rng.binomial(pending, np.clip(hz, 0.0, 1.0))
        out[:, b] += land
        pending -= land
    pending = np.zeros(R, dtype=np.int64)
    for b in range(1, m):
        pending += above[:, b - 1]
        hz = np.divide(hic[:, b], Hi[:, b],
                       out=np.ones(R), where=Hi[:, b] > 0)
        land = rng.binomial(pending, np.clip(hz, 0.0, 1.0))
        out[:, b] += land
        pending -= land
    return out
