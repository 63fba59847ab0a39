"""Simulation engines — and how to pick one.

Four substrates execute the same protocols; they differ in what they store
per round and therefore in where they are fast:

``vectorized`` (:func:`repro.engine.vectorized.simulate`)
    One value per process, one NumPy pass per round: O(n) time and memory per
    round.  The default.  Use it whenever n is laptop-sized (up to ~10⁷),
    when you need per-process trajectories, sample-path couplings, custom
    rules without count-space kernels, or custom identity-tracking
    adversaries.

``occupancy`` (:func:`repro.engine.occupancy.simulate_occupancy`)
    One count per distinct value, one multinomial scatter per round: O(m²)
    time, **independent of n**.  Statistically exact (equal in law to the
    vectorized engine — pinned by the ``tests/equivalence.py`` harness via
    ``tests/test_engine_differential.py``), so use it for very large
    populations with few values (n = 10⁸–10⁹, m up to a few thousand).
    Limits: rules need a count-space kernel (median, median-k,
    median-noreplace, voter, minimum, maximum, three-majority,
    two-choices-majority) and adversaries a count-edit form — every shipped
    strategy has one, the identity-tracking pair (sticky, hiding) through
    exact victim-*occupancy* tracking, which costs one extra multinomial
    scatter per round (~2× the no-adversary round, still n-independent);
    per-ball quantities (gravity, per-process trajectories) are unavailable.

``batch`` (:func:`repro.engine.batch.run_batch` / :func:`~repro.engine.batch.run_batch_fused` / :func:`~repro.engine.batch.run_batch_fused_occupancy`)
    Monte-Carlo over independent runs.  ``run_batch`` repeats any single-run
    engine (select with ``engine="vectorized" | "occupancy" |
    "occupancy-fused"``); ``run_batch_fused`` packs R median-rule runs into
    one (R, n) array program and is the fastest way to get convergence-round
    distributions at moderate n.  ``run_batch_fused_occupancy``
    (``engine="occupancy-fused"``) is the count-space analogue: all R runs
    advance as one (R, m) count tensor, each round building a stacked
    (R, m, m) outcome tensor and drawing all R·m multinomials in a single
    call.  Cost model: O(R·m²) time per round **independent of n** and
    O(R·m² · 8 bytes) peak memory (chunked over runs beyond ~134 MB), versus
    O(R·m²) time *plus O(R) interpreter round trips* for the looped
    occupancy path — the fused engine wins by an order of magnitude once R is
    in the hundreds (``benchmarks/bench_batch_fused.py``), and by far more at
    large n against the (R, n) value-space engines.

    Supported rule/adversary matrix of the occupancy substrates (single-run
    and fused alike):

    =================  =========================================================
    rules              median, median-k (any k), median-noreplace, voter,
                       minimum, maximum, three-majority (majority of three
                       polled processes), two-choices-majority (adopt iff two
                       samples agree), or any rule defining
                       ``occupancy_kernel(support, counts)``
    adversaries        every shipped strategy: null, balancing, reviving,
                       switching, random, targeted-median (count-edit forms
                       via ``Adversary.corrupt_counts``) **and** the
                       identity-tracking pair sticky / hiding (exact
                       victim-occupancy forms: the engine scatters the victim
                       subpopulation separately — one extra multinomial pass
                       per round, cost ~2× the no-adversary round, still
                       independent of n).  Custom adversaries without a
                       ``propose_counts`` override stay vectorized-only.
    =================  =========================================================

    ``run_batch(engine="occupancy-fused")`` checks the pair up front and
    falls back to the looped occupancy path when records/results are
    requested; sweep builders resolve unsupported cells to ``"vectorized"``
    before any work is spent (:data:`repro.engine.batch.COUNT_ADVERSARIES`,
    :func:`repro.engine.batch.fused_occupancy_cell_supported`).

``network`` (:class:`repro.network.simulator.NetworkSimulator`)
    Agent-level message passing with explicit topologies, schedulers and
    per-node inboxes.  Orders of magnitude slower; use it only to validate
    protocol semantics, asynchrony, or non-complete communication graphs
    (small n).

Rule of thumb: protocol semantics → network; n ≤ 10⁷ or exotic
rules/adversaries → vectorized (batch/fused for distributions); n beyond that
with modest m → occupancy; convergence-round *distributions* at any n with
modest m → occupancy-fused.

Multinomial kernel backend (the m ≥ 64 wall)
--------------------------------------------
Every occupancy substrate bottoms out in exact multinomial scatters, drawn
through one seam (:mod:`repro.engine._multinomial`) with two backends:

=============  ============================================================
``numpy``      ``Generator.multinomial`` — the historical bit stream; every
               seed-pinned golden result was produced on it.
``compiled``   conditional-binomial cascade in native code (numba if
               importable, else a C kernel compiled on first use), plus a
               pooled *banded* sampler that scatters a built-in rule's whole
               run with O(m) draws instead of O(m²).
=============  ============================================================

Selection is ``auto`` (compiled when available, else NumPy with one
structured warning): force or pin with ``REPRO_MULTINOMIAL_KERNEL=
{auto,compiled,numpy,numba,cc}`` or
:func:`repro.engine.rng.set_multinomial_backend`; check what actually runs
with :func:`repro.engine.rng.multinomial_kernel_id` (also stamped into
store provenance, shown by ``repro store info``).  Expected effect: at
m ≤ 32 the dense rounds are cheap and fusion already wins, so the backend
barely matters; at m = 64 the compiled banded path is what restores the
≥10× fused-vs-looped gap (``benchmarks/bench_multinomial.py`` /
``BENCH_multinomial.json``).  Reproducibility is backend-scoped: identical
seeds give identical results only within one backend; across backends the
engines agree in distribution (certified by
``tests/test_engine_differential.py`` and ``tests/test_multinomial_seam.py``).
"""

from repro.engine.asynchronous import ACTIVATION_ORDERS, AsyncResult, simulate_asynchronous
from repro.engine.batch import (
    BATCH_ENGINES,
    COUNT_ADVERSARIES,
    ENGINES,
    BatchResult,
    fused_occupancy_cell_supported,
    run_batch,
    run_batch_fused,
    run_batch_fused_occupancy,
)
from repro.engine.occupancy import (
    occupancy_outcome_profiles,
    occupancy_round,
    occupancy_round_batch,
    occupancy_transition_matrix,
    occupancy_transition_matrix_batch,
    simulate_occupancy,
)
from repro.engine.rng import (
    KernelInfo,
    MultinomialKernelWarning,
    RngPool,
    make_rng,
    multinomial_backend_info,
    multinomial_kernel_id,
    resolve_multinomial_backend,
    set_multinomial_backend,
    spawn_rngs,
    spawn_seeds,
)
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel, Trajectory, TrajectoryRecorder
from repro.engine.vectorized import EngineConfig, default_max_rounds, simulate

__all__ = [
    "simulate",
    "simulate_occupancy",
    "simulate_asynchronous",
    "AsyncResult",
    "ACTIVATION_ORDERS",
    "EngineConfig",
    "default_max_rounds",
    "SimulationResult",
    "BatchResult",
    "run_batch",
    "run_batch_fused",
    "run_batch_fused_occupancy",
    "fused_occupancy_cell_supported",
    "ENGINES",
    "BATCH_ENGINES",
    "COUNT_ADVERSARIES",
    "occupancy_round",
    "occupancy_round_batch",
    "occupancy_outcome_profiles",
    "occupancy_transition_matrix",
    "occupancy_transition_matrix_batch",
    "KernelInfo",
    "MultinomialKernelWarning",
    "multinomial_backend_info",
    "multinomial_kernel_id",
    "resolve_multinomial_backend",
    "set_multinomial_backend",
    "RecordLevel",
    "Trajectory",
    "TrajectoryRecorder",
    "make_rng",
    "spawn_rngs",
    "spawn_seeds",
    "RngPool",
]
