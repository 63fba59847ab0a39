"""The exact-multinomial kernel seam: resolution, fallback, and sampling law.

Six concerns:

* **selection plumbing** — ``auto → compiled → numpy`` resolution, the
  ``REPRO_MULTINOMIAL_KERNEL`` env override, :func:`set_multinomial_backend`
  precedence, and the guarantee that a broken provider degrades to NumPy
  with exactly one structured :class:`MultinomialKernelWarning` per
  requested mode (and that importing :mod:`repro.engine` never triggers
  detection at all); a run launched with the variable at ``compiled`` or
  ``cc`` fails instead of silently falling back; a count-space loop
  resolves the backend once and draws once per scatter, with no ctypes
  conversion per array, and the bound entry points refuse an array of the
  wrong dtype, layout or shape before C runs;
* **routing** — each backend draws every count-space round through its one
  sampler: NumPy through the dense ``scatter_column_sums_batch``, the
  compiled kernel through ``sample_scatter_banded``; only the dense round
  refuses a support wider than ``MAX_SUPPORT_DEFAULT``;
* **invariants** — row sums preserved exactly, zero-count rows exactly
  zero, zero-probability columns never receive mass, on every seam entry
  point and under either configured backend;
* **marginal law** — chi-square goodness of fit of the compiled kernel's
  binomial draws against the exact binomial law, over a small (n, p) grid;
* **cross-backend agreement** — the two backends are bitwise *different*
  streams but statistically equal: the compiled banded walker matches
  NumPy's dense scatter and the NumPy banded reference in law;
* **what the compiled kernel buys** — the fused engine on it stays ≥ 3×
  faster than the looped engine on NumPy at m = 64.

Seeds fixed throughout; thresholds sized so a correct sampler passes with
wide margin (p-value floors at 1e-4 over a handful of cells) while an
off-by-one in a conditional probability fails immediately.
"""

from __future__ import annotations

import ctypes
import os
import sys
import time
import warnings

import numpy as np
import pytest

from repro.adversary.base import AdversaryTiming
from repro.adversary.strategies import make_adversary
from repro.engine import _multinomial as mnk
from repro.engine._multinomial import (
    BACKEND_CHOICES,
    ENV_VAR,
    KernelInfo,
    MultinomialKernelWarning,
    resolve_multinomial_backend,
    sample_flows,
    sample_scatter_banded,
    scatter_column_sums,
    scatter_column_sums_batch,
    set_multinomial_backend,
)
from repro.core.median_rule import MedianRule
from repro.core.rules import get_rule
from repro.core.state import Configuration
from repro.engine.batch import run_batch, run_batch_fused_occupancy
from repro.engine.occupancy import (
    MAX_SUPPORT_DEFAULT,
    OCCUPANCY_RULES,
    occupancy_round_batch,
    simulate_occupancy,
)
from repro.experiments.workloads import make_workload_for_engine

HAS_COMPILED = resolve_multinomial_backend("compiled").resolved == "compiled"

#: the kernel this process was launched with (the autouse fixture clears it)
LAUNCH_KERNEL = os.environ.get(ENV_VAR, "")

BACKENDS = ["numpy"] + (["compiled"] if HAS_COMPILED else [])

needs_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="no compiled multinomial provider on this host")


@pytest.fixture(autouse=True)
def _clean_backend_config(monkeypatch):
    """Each test starts from pristine resolution state (env wins, no override)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_multinomial_backend(None)
    yield
    set_multinomial_backend(None)


# ---------------------------------------------------------------------- #
# selection plumbing
# ---------------------------------------------------------------------- #
class TestResolution:
    def test_numpy_always_resolves(self):
        info = resolve_multinomial_backend("numpy")
        assert info == KernelInfo("numpy", "numpy", "numpy")
        assert info.kernel_id == "numpy"

    def test_auto_resolves_to_something_valid(self):
        info = resolve_multinomial_backend("auto")
        assert info.resolved in ("compiled", "numpy")
        assert info.kernel_id in ("numpy", "compiled:cc")

    def test_env_override_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_multinomial_backend().resolved == "numpy"

    def test_set_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "auto")
        set_multinomial_backend("numpy")
        assert resolve_multinomial_backend().resolved == "numpy"

    def test_explicit_argument_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        set_multinomial_backend("numpy")
        info = resolve_multinomial_backend("auto")
        assert info.requested == "auto"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown multinomial backend"):
            resolve_multinomial_backend("cuda")
        with pytest.raises(ValueError, match="unknown multinomial backend"):
            set_multinomial_backend("cuda")
        monkeypatch.setenv(ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown multinomial backend"):
            resolve_multinomial_backend()

    def test_choices_are_documented(self):
        assert set(BACKEND_CHOICES) == {"auto", "compiled", "numpy", "cc"}

    @needs_compiled
    def test_kernel_id_is_provenance_grade(self):
        assert resolve_multinomial_backend("compiled").kernel_id.startswith(
            "compiled:")

    def test_requested_compiled_kernel_does_not_fall_back(self, monkeypatch):
        # the @needs_compiled tests skip when the provider is broken; a run
        # that asked for the compiled kernel must fail here instead
        if LAUNCH_KERNEL.strip().lower() not in ("compiled", "cc"):
            pytest.skip(f"{ENV_VAR}={LAUNCH_KERNEL!r} does not request a "
                        "compiled kernel")
        monkeypatch.setenv(ENV_VAR, LAUNCH_KERNEL)
        info = resolve_multinomial_backend()
        assert info.resolved == "compiled", info.detail


def _poison_providers(monkeypatch):
    """Make every compiled provider fail detection, from a clean slate."""
    monkeypatch.setattr(mnk, "_PROVIDER_FACTORIES", {
        name: _raise for name in mnk._PROVIDER_FACTORIES})
    monkeypatch.setattr(mnk, "_providers", {})
    monkeypatch.setattr(mnk, "_provider_errors", {})
    monkeypatch.setattr(mnk, "_warned", set())


def _kernel_warnings(caught):
    return [w for w in caught if issubclass(w.category, MultinomialKernelWarning)]


class TestFallback:
    """A broken provider degrades to NumPy: one warning, correct results."""

    @pytest.mark.parametrize("mode", ["auto", "compiled"])
    def test_broken_providers_fall_back_with_single_warning(self, monkeypatch, mode):
        _poison_providers(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = resolve_multinomial_backend(mode)
            second = resolve_multinomial_backend(mode)
        assert first.resolved == "numpy" == second.resolved
        assert "deliberately broken" in first.detail
        assert len(_kernel_warnings(caught)) == 1  # warned once, not per call
        # sampling still works end to end on the fallback
        rng = np.random.default_rng(3)
        third = np.full(3, 1 / 3)
        out = sample_scatter_banded(np.array([[9, 0, 4]]), third, third, third,
                                    rng, backend=mode)
        assert out.sum() == 13

    def test_fallback_warns_once_per_requested_mode(self, monkeypatch):
        _poison_providers(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for mode in ("auto", "compiled", "auto", "compiled"):
                assert resolve_multinomial_backend(mode).resolved == "numpy"
        assert [str(w.message).split("'")[1] for w in _kernel_warnings(caught)] \
            == ["auto", "compiled"]

    def test_import_engine_does_not_trigger_detection(self):
        # detection state is only populated by sampling/resolution calls;
        # a fresh interpreter importing repro.engine must not compile
        # anything or warn (proven end-to-end by the numpy CI leg; here
        # we pin the module-level contract that makes it true)
        import subprocess
        import sys
        code = (
            "import sys, warnings\n"
            "warnings.simplefilter('error')\n"   # any warning -> failure
            "import repro.engine\n"
            "mnk = sys.modules['repro.engine._multinomial']\n"
            "assert mnk._providers == {}, 'import ran feature detection'\n"
            "print('clean')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout


def _raise(*a, **k):
    raise RuntimeError("deliberately broken provider")


# ---------------------------------------------------------------------- #
# a loop's kernel: resolved once, bound to raw addresses
# ---------------------------------------------------------------------- #
class _CallCounter:
    """Counts Python-level calls of the given functions while installed."""

    def __init__(self, **functions):
        self._names = {f.__code__: name for name, f in functions.items()}
        self.calls = dict.fromkeys(functions, 0)

    def _profile(self, frame, event, arg):
        if event == "call":
            name = self._names.get(frame.f_code)
            if name is not None:
                self.calls[name] += 1

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous)


@needs_compiled
@pytest.mark.parametrize("max_rounds", [4, 30])
@pytest.mark.parametrize("adversary, scatters", [("null", 1), ("balancing", 1),
                                                 ("sticky", 2)])
def test_a_loop_resolves_once_and_draws_once_per_scatter(adversary, scatters,
                                                          max_rounds):
    """Whatever its length, a fused loop resolves the backend at most once,
    calls the kernel once per round (twice with a victim-tracking adversary,
    whose victims are scattered separately) and converts no array argument
    through ``ndpointer``."""
    set_multinomial_backend("compiled")
    resolve_multinomial_backend()          # detection is not part of the loop
    initial = make_workload_for_engine("two-bins", "occupancy-fused", n=4096,
                                       minority=2048)
    factory = None if adversary == "null" else (lambda: make_adversary(
        adversary, budget=64, timing=AdversaryTiming.BEFORE_SAMPLING))
    ndpointer_from_param = np.ctypeslib.ndpointer(np.float64).from_param.__func__
    draws = mnk.DRAW_STATS["calls"]
    with _CallCounter(resolve=mnk.resolve_multinomial_backend,
                      from_param=ndpointer_from_param) as counter:
        result = run_batch_fused_occupancy(initial, 6, adversary_factory=factory,
                                           seed=11, max_rounds=max_rounds)
    rounds = result.meta["rounds_executed"]
    assert rounds >= 3
    assert counter.calls["resolve"] <= 1
    assert counter.calls["from_param"] == 0
    assert mnk.DRAW_STATS["calls"] - draws == scatters * rounds


def _bad_arguments():
    """The banded entry point's good arguments, and variants with one
    argument refused: a float32 array, a strided one, and one of another
    dtype."""
    rng = np.random.default_rng(0)
    R, m = 3, 4
    counts = rng.integers(1, 50, (R, m)).astype(np.int64)
    probs = rng.dirichlet(np.ones(m), 3 * R)
    good = {"counts": counts, "lo": probs[:R], "hi": probs[R:2 * R],
            "diag": probs[2 * R:]}
    wide = np.zeros((R, 2 * m), dtype=np.int64)
    wide[:, ::2] = counts
    bad = {
        "float32": {"lo": good["lo"].astype(np.float32)},
        "strided": {"counts": wide[:, ::2]},
        "wrong-dtype": {"counts": counts.astype(np.int32),
                        "lo": good["lo"].astype(np.int64)},
    }
    return good, bad


@needs_compiled
@pytest.mark.parametrize("case", ["float32", "strided", "wrong-dtype"])
def test_bound_entry_points_refuse_arrays_c_cannot_read(monkeypatch, case):
    """The raw-address binding keeps ``ndpointer``'s guard: an array of the
    wrong dtype or layout raises before any C entry point is called."""
    provider = mnk._providers[resolve_multinomial_backend("compiled").provider]
    good, bad = _bad_arguments()
    assert provider.sample_banded(**good, seed=5).sum() == good["counts"].sum()
    called = []
    for c_entry in ("_seed", "_banded"):
        monkeypatch.setattr(provider, c_entry,
                            lambda *args, c_entry=c_entry: called.append(c_entry))
    for name, value in bad[case].items():
        with pytest.raises((ctypes.ArgumentError, TypeError, ValueError)):
            provider.sample_banded(**{**good, name: value}, seed=5)
    assert called == []


# ---------------------------------------------------------------------- #
# routing: each backend's one count-space sampler
# ---------------------------------------------------------------------- #
_SAMPLERS = {"numpy": "scatter_column_sums_batch",
             "compiled": "sample_scatter_banded"}


@pytest.mark.parametrize("rule_name", sorted(OCCUPANCY_RULES))
@pytest.mark.parametrize("adversary", ["null", "balancing", "sticky"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_each_backend_draws_every_round_through_its_one_sampler(
        monkeypatch, backend, adversary, rule_name):
    """A fused loop and a single occupancy run on ``backend`` draw every
    scatter through that backend's sampler and never through the other's."""
    set_multinomial_backend(backend)
    calls = dict.fromkeys(_SAMPLERS.values(), 0)
    for name in calls:
        def spy(*args, _name=name, _sampler=getattr(mnk, name), **kwargs):
            calls[_name] += 1
            return _sampler(*args, **kwargs)
        monkeypatch.setattr(mnk, name, spy)
    initial = make_workload_for_engine("blocks", "occupancy", n=600, m=6)
    rule = get_rule(rule_name)

    def factory():
        return make_adversary(adversary, budget=8)

    fused = run_batch_fused_occupancy(initial, 4, rule=rule, seed=3, max_rounds=6,
                                      adversary_factory=factory)
    single = simulate_occupancy(initial, rule=rule, adversary=factory(), seed=4,
                                max_rounds=6)
    assert fused.meta["rounds_executed"] >= 1 and single.rounds_executed >= 1
    own = _SAMPLERS[backend]
    other = _SAMPLERS["compiled" if backend == "numpy" else "numpy"]
    assert calls[own] >= 2 and calls[other] == 0, calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_only_the_dense_round_limits_the_support_width(backend):
    """Past ``MAX_SUPPORT_DEFAULT`` bins NumPy's round would build an m×m
    matrix and refuses; the compiled banded walker holds O(R·m) and runs."""
    set_multinomial_backend(backend)
    wide = np.ones((1, MAX_SUPPORT_DEFAULT + 1), dtype=np.int64)
    distinct = Configuration.all_distinct(2 * MAX_SUPPORT_DEFAULT + 1)
    rng = np.random.default_rng(0)
    if backend == "numpy":
        with pytest.raises(ValueError, match="transition matrix"):
            occupancy_round_batch(wide, MedianRule(), rng)
        with pytest.raises(ValueError, match="transition matrix"):
            simulate_occupancy(distinct, seed=0)
        return
    assert int(occupancy_round_batch(wide, MedianRule(), rng).sum()) == wide.size
    assert simulate_occupancy(distinct, seed=0).reached_consensus


# ---------------------------------------------------------------------- #
# invariants, both backends, every entry point
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestInvariants:
    def _rows(self, seed=0, N=24, m=7):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 500, N).astype(np.int64)
        counts[::4] = 0                      # interleave zero-count rows
        P = rng.dirichlet(np.ones(m), N)
        P[:, 2] = 0.0                        # a dead column
        P /= P.sum(axis=1, keepdims=True)
        return counts, P

    def test_sample_flows_row_sums_and_zero_rows(self, backend):
        # NumPy only: it keeps its invariants whatever backend is configured
        set_multinomial_backend(backend)
        counts, P = self._rows()
        flows = sample_flows(counts, P, np.random.default_rng(1))
        assert flows.dtype == np.int64
        np.testing.assert_array_equal(flows.sum(axis=1), counts)
        assert (flows[counts == 0] == 0).all()
        assert (flows[:, 2] == 0).all()      # dead column gets no mass
        assert (flows >= 0).all()

    def test_scatter_sums_conserve_population(self, backend):
        # NumPy only: it keeps its invariants whatever backend is configured
        set_multinomial_backend(backend)
        counts, P = self._rows(seed=9, N=6, m=6)
        sums = scatter_column_sums(counts[:6], P[:6], np.random.default_rng(3))
        assert sums.sum() == counts[:6].sum()
        cb = np.abs(counts[:6])[None].repeat(5, axis=0)
        cb[1] = 0
        cb[1, 0] = 11                        # sparse row for the filter path
        Qb = P[:6][None].repeat(5, axis=0)
        out = scatter_column_sums_batch(cb, Qb, np.random.default_rng(4))
        np.testing.assert_array_equal(out.sum(axis=1), cb.sum(axis=1))

    def test_banded_stay_profile_is_identity(self, backend):
        cb = np.array([[3, 0, 14, 2], [1, 1, 1, 1]], dtype=np.int64)
        z = np.zeros(4)
        out = sample_scatter_banded(cb, z, z, np.ones(4),
                                    np.random.default_rng(5), backend=backend)
        np.testing.assert_array_equal(out, cb)

    def test_banded_conserves_population(self, backend):
        rng = np.random.default_rng(6)
        cb = rng.integers(0, 200, (8, 9)).astype(np.int64)
        lo = rng.random(9) * 0.1
        hi = rng.random(9) * 0.1
        diag = rng.random(9)
        out = sample_scatter_banded(cb, lo, hi, diag,
                                    np.random.default_rng(7), backend=backend)
        np.testing.assert_array_equal(out.sum(axis=1), cb.sum(axis=1))
        assert (out >= 0).all()

    def test_within_backend_seed_reproducibility(self, backend):
        counts, P = self._rows(seed=11)
        cb = counts.reshape(4, 6)
        lo, hi, diag = P[:4, :6], P[4:8, :6], P[8:12, :6]
        a = sample_scatter_banded(cb, lo, hi, diag, np.random.default_rng(42),
                                  backend=backend)
        b = sample_scatter_banded(cb, lo, hi, diag, np.random.default_rng(42),
                                  backend=backend)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------- #
# marginal law: chi-square against the exact binomial marginals
# ---------------------------------------------------------------------- #
def _chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Right-tail chi-square p-value via the regularized gamma function."""
    from math import erfc, exp, lgamma, log, sqrt

    mask = expected > 5
    if mask.sum() < 2:
        return 1.0
    stat = float(((observed[mask] - expected[mask]) ** 2
                  / expected[mask]).sum())
    k = int(mask.sum()) - 1
    # Wilson–Hilferty normal approximation of the chi-square tail
    z = ((stat / k) ** (1 / 3) - (1 - 2 / (9 * k))) / sqrt(2 / (9 * k))
    return 0.5 * erfc(z / sqrt(2))


@needs_compiled
@pytest.mark.parametrize("n,p", [(50, 0.3), (400, 0.07), (2000, 0.5),
                                 (10 ** 5, 0.015), (40, 0.1)])
def test_compiled_marginal_matches_binomial_law(n, p):
    """The compiled kernel's binomial draws follow Binomial(n, p): chi-square
    them over repeated runs (covers both the inversion regime, n·p < 10, and
    the BTRS regime of the compiled binomial sampler).  The walker draws
    them on two bins: n holders of bin 0 with ``lo = 0``, ``hi = [0, p]``
    and ``diag = [1 − p, 1]`` make one draw per run, Binomial(n, p) movers
    up, and all of them land in bin 1."""
    reps = 600
    counts = np.tile(np.array([n, 0], dtype=np.int64), (reps, 1))
    out = sample_scatter_banded(counts, np.zeros(2), np.array([0.0, p]),
                                np.array([1.0 - p, 1.0]),
                                np.random.default_rng(123), backend="compiled")
    draws = out[:, 1]
    lo_edge = max(0, int(n * p - 6 * np.sqrt(n * p * (1 - p)) - 2))
    hi_edge = min(n, int(n * p + 6 * np.sqrt(n * p * (1 - p)) + 2))
    edges = np.linspace(lo_edge, hi_edge, 12).astype(np.int64)
    observed, _ = np.histogram(draws, bins=edges)
    # exact bin probabilities from the binomial pmf (log-space, stable)
    from math import lgamma

    def log_pmf(k):
        return (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                + k * np.log(p) + (n - k) * np.log1p(-p))

    ks = np.arange(0, n + 1) if n <= 2000 else np.arange(lo_edge, hi_edge + 1)
    pmf = np.exp([log_pmf(int(k)) for k in ks])
    cell_p = np.array([pmf[(ks >= a) & (ks < b)].sum()
                       for a, b in zip(edges[:-1], edges[1:])])
    expected = reps * cell_p
    assert _chi_square_pvalue(observed, expected) > 1e-4


@needs_compiled
def test_banded_matches_dense_cascade_in_law():
    """The compiled banded walker and NumPy's dense scatter (the trusted
    reference) sample the same law: compare mean new-occupancy over
    repeated rounds for a real median-rule profile."""
    from repro.core.median_rule import MedianRule
    from repro.engine.occupancy import (
        occupancy_outcome_profiles,
        occupancy_transition_matrix,
    )

    rng = np.random.default_rng(29)
    R, m, n = 24, 12, 3000
    counts = rng.multinomial(n, rng.dirichlet(np.ones(m)), size=R)
    rule = MedianRule()
    Q = occupancy_transition_matrix(rule, counts)
    lo, hi, diag = occupancy_outcome_profiles(rule, counts)
    reps = 150
    dense = np.zeros((R, m))
    banded = np.zeros((R, m))
    for rep in range(reps):
        dense += scatter_column_sums_batch(
            counts, Q, np.random.default_rng(5000 + rep))
        banded += sample_scatter_banded(
            counts, lo, hi, diag, np.random.default_rng(6000 + rep),
            backend="compiled")
    dense /= reps
    banded /= reps
    # exact mean: counts @ Q per run
    expected = np.einsum("ra,rab->rb", counts.astype(float), Q)
    sd = np.sqrt(np.maximum(
        np.einsum("ra,rab->rb", counts.astype(float), Q * (1 - Q)), 1e-9)
        / reps)
    assert (np.abs(dense - expected) / sd).max() < 6.0
    assert (np.abs(banded - expected) / sd).max() < 6.0


@needs_compiled
def test_banded_numpy_reference_agrees_with_compiled():
    """The independently-written NumPy banded reference and the compiled
    walker agree in mean occupancy (mutual certification of the two
    implementations of the pooled-hazard scheme)."""
    rng = np.random.default_rng(31)
    R, m = 16, 8
    counts = rng.integers(100, 800, (R, m)).astype(np.int64)
    lo = rng.random(m) * 0.05
    hi = rng.random(m) * 0.05
    diag = 0.5 + rng.random(m) * 0.5
    reps = 200
    acc = {}
    for backend in ("numpy", "compiled"):
        total = np.zeros((R, m))
        for rep in range(reps):
            total += sample_scatter_banded(
                counts, lo, hi, diag, np.random.default_rng(7000 + rep),
                backend=backend)
        acc[backend] = total / reps
    scale = np.maximum(np.sqrt(counts.sum(axis=1, keepdims=True)), 1.0)
    diff = np.abs(acc["numpy"] - acc["compiled"]) / (scale / np.sqrt(reps))
    assert diff.max() < 6.0


# ---------------------------------------------------------------------- #
# what the compiled kernel buys, end to end
# ---------------------------------------------------------------------- #
@needs_compiled
def test_compiled_fused_beats_looped_numpy_by_3x():
    """Guard: at n = 10⁵, m = 64, R = 64 (blocks) the fused engine on the
    compiled kernel is ≥ 3× faster than the looped engine on NumPy (~29× on
    a 2-vCPU Xeon; the floor only absorbs timer noise).  All four
    engine/backend pairs must converge; only the first and last are compared."""
    init = make_workload_for_engine("blocks", "occupancy", n=10**5, m=64)

    def run(backend, fused, seed):
        set_multinomial_backend(backend)
        t0 = time.perf_counter()
        batch = (run_batch_fused_occupancy(init, 64, seed=seed) if fused
                 else run_batch(init, 64, seed=seed, engine="occupancy"))
        secs = time.perf_counter() - t0
        assert batch.convergence_fraction == 1.0, (backend, fused)
        return secs

    looped_numpy = run("numpy", False, 20260808)
    run("numpy", True, 20260809)
    run("compiled", False, 20260810)
    fused_compiled = run("compiled", True, 20260811)
    assert looped_numpy >= 3.0 * fused_compiled, (looped_numpy, fused_compiled)


@needs_compiled
def test_compiled_fused_converges_at_n_1e6_m64():
    init = make_workload_for_engine("blocks", "occupancy", n=10**6, m=64)
    set_multinomial_backend("compiled")
    assert run_batch_fused_occupancy(init, 64, seed=7).convergence_fraction == 1.0
