"""Simulation engines — and how to pick one.

Four substrates execute the same protocols; they differ in what they store
per round and therefore in where they are fast:

``vectorized`` (:func:`repro.engine.vectorized.simulate`)
    One value per process, one NumPy pass per round: O(n) time and memory per
    round.  A round costs one contact draw, one rule pass and one *census* —
    the values' histogram, a bounded ``np.bincount`` over the run's value
    range — which feeds the stop checks and a before-sampling adversary;
    ``np.unique`` runs only as the fallback (a value-creating rule such as
    ``mean``, or a value range wider than 4·n).  The default.  Use it
    whenever n is laptop-sized (up to ~10⁷),
    when you need per-process trajectories, sample-path couplings, custom
    rules without count-space kernels, or custom identity-tracking
    adversaries.

``occupancy`` (:func:`repro.engine.occupancy.simulate_occupancy`)
    One count per distinct value, one multinomial scatter per round: O(m²)
    time, **independent of n**.  Statistically exact (equal in law to the
    vectorized engine — pinned by the ``tests/equivalence.py`` harness via
    ``tests/test_engine_differential.py``), so use it for very large
    populations with few values (n = 10⁸–10⁹, m up to a few thousand).
    A single run is the fused count-space loop below at R = 1, on the run's
    own generator.
    Limits: rules need a count-space kernel (median, median-k,
    median-noreplace, voter, minimum, maximum, three-majority,
    two-choices-majority) and adversaries a count-edit form — every shipped
    strategy has one, sticky (hiding under its paper name) through exact
    victim-*occupancy* tracking, which costs one extra multinomial
    scatter per round (~2× the no-adversary round, still n-independent);
    per-ball quantities (gravity, per-process trajectories) are unavailable.

``batch`` (:func:`repro.engine.batch.run_batch` / :func:`~repro.engine.batch.run_batch_fused_occupancy`)
    Monte-Carlo over independent runs.  ``run_batch`` repeats any single-run
    engine (select with ``engine="vectorized" | "occupancy" |
    "occupancy-fused"``).  ``run_batch_fused_occupancy``
    (``engine="occupancy-fused"``) advances all R runs as one (R, m) count
    tensor, each round drawing every run's scatter in a single call of the
    backend's one sampler (below).  It and the single-run
    ``occupancy`` engine share one round loop (stop rules, adversary steps,
    convergence bookkeeping) and one outcome law per rule
    (:func:`~repro.engine.occupancy.occupancy_outcome_profiles`), as
    ``vectorized`` and ``network`` share one value-space round loop.
    Cost model: O(R·m²) time per round **independent of n**, versus O(R·m²)
    time *plus O(R) interpreter round trips* for the looped occupancy path.
    Peak memory is O(R·m² · 8 bytes) on the NumPy backend, whose dense
    (R, m, m) outcome tensor is drawn in run blocks of ~134 MB, and O(R·m)
    on the compiled backend, whose banded walker builds no matrix.
    With an adversary the fused engine still makes one adversary step per
    round and timing for all R runs; what it does per run is the
    strategies' random victim draws and the run's ledger entry.  The fused
    engine wins by an order of magnitude once R is in the hundreds
    (``tests/test_batch_fused_occupancy.py`` guards ≥ 2× at R = 96), and by
    far more at large n against the looped value-space engine.

    Supported rule/adversary matrix of the occupancy substrates (single-run
    and fused alike):

    =================  =========================================================
    rules              median, median-k (any k), median-noreplace, voter,
                       minimum, maximum, three-majority (majority of three
                       polled processes), two-choices-majority (adopt iff two
                       samples agree)
    adversaries        every shipped strategy: null; the histogram
                       strategies balancing, reviving, switching, random,
                       targeted-median (each one move, realized as count
                       edits via ``Adversary.corrupt_counts`` and as writes
                       via ``Adversary.corrupt``); **and** sticky, with
                       hiding as its paper name (an exact victim-occupancy
                       form: the engine scatters the victim subpopulation
                       separately — one extra multinomial pass per round,
                       cost ~2× the no-adversary round, still independent
                       of n).  One adversary step per round and timing
                       covers every run; only the victim draws of reviving,
                       switching and random, and sticky's first-round victim
                       choice, are made per run.  A custom strategy's
                       ``propose_counts`` is called per run inside that
                       step; custom adversaries without a
                       ``propose_counts`` override stay vectorized-only.
    =================  =========================================================

    ``run_batch(engine="occupancy-fused")`` runs the fused engine, which,
    like ``occupancy``, refuses an unsupported pair.  A sweep cell's engine
    is chosen once, by :func:`repro.experiments.runner.resolve_cell_engine`
    through :func:`repro.engine.batch.fused_occupancy_cell_supported`: an
    unsupported or too-wide cell goes to ``"vectorized"`` before any work.

``network`` (:class:`repro.network.simulator.NetworkSimulator`)
    Agent-level message passing with explicit topologies, schedulers and
    per-node inboxes.  Orders of magnitude slower; use it only to validate
    protocol semantics, asynchrony, or non-complete communication graphs
    (small n).  Its ``run`` drives the ``vectorized`` round loop with a
    message-passing round; with a request cap of n·k (nothing dropped) it is
    equal in law to ``vectorized`` (``tests/test_engine_differential.py``).

Rule of thumb: protocol semantics → network; n ≤ 10⁷ or exotic
rules/adversaries → vectorized (``run_batch`` for distributions); n beyond that
with modest m → occupancy; convergence-round *distributions* at any n with
modest m → occupancy-fused.

Multinomial kernel backend (the m ≥ 64 wall)
--------------------------------------------
Every occupancy substrate bottoms out in exact multinomial scatters, drawn
through one seam (:mod:`repro.engine._multinomial`) with two backends, one
count-space sampler each:

=============  ============================================================
``numpy``      ``scatter_column_sums_batch``: ``Generator.multinomial``
               over the dense (R, m, m) outcome tensor — the historical
               bit stream; every seed-pinned golden result was produced
               on it.  Only this round limits m (≤ 10⁴) and blocks runs.
``compiled``   ``sample_scatter_banded``: a pooled *banded* walker in a C
               kernel compiled on first use (provider ``cc``) that
               scatters a run with O(m) binomial draws instead of O(m²)
               and never builds the m×m matrix.
=============  ============================================================

Selection is ``auto`` (compiled when available, else NumPy with one
structured warning): force or pin with ``REPRO_MULTINOMIAL_KERNEL=
{auto,compiled,numpy,cc}`` or
:func:`repro.engine.rng.set_multinomial_backend`; check what actually runs
with :func:`repro.engine.rng.multinomial_kernel_id` (also stamped into
store provenance, shown by ``repro store info``).  Expected effect: at
m ≤ 32 the dense rounds are cheap and fusion already wins, so the backend
barely matters; at m = 64 the compiled banded path is what restores the
≥10× fused-vs-looped gap (``tests/test_multinomial_seam.py`` guards ≥ 3×
over the looped NumPy path at n = 10⁵, m = 64, R = 64).  Reproducibility is
backend-scoped: identical
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
    run_batch_fused_occupancy,
)
from repro.engine.occupancy import (
    occupancy_outcome_profiles,
    occupancy_round,
    occupancy_round_batch,
    occupancy_transition_matrix,
    simulate_occupancy,
)
from repro.engine.rng import (
    KernelInfo,
    MultinomialKernelWarning,
    RngPool,
    make_rng,
    multinomial_kernel_id,
    resolve_multinomial_backend,
    set_multinomial_backend,
    spawn_rngs,
    spawn_seeds,
)
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel, Trajectory, TrajectoryRecorder
from repro.engine.vectorized import default_max_rounds, simulate

__all__ = [
    "simulate",
    "simulate_occupancy",
    "simulate_asynchronous",
    "AsyncResult",
    "ACTIVATION_ORDERS",
    "default_max_rounds",
    "SimulationResult",
    "BatchResult",
    "run_batch",
    "run_batch_fused_occupancy",
    "fused_occupancy_cell_supported",
    "ENGINES",
    "BATCH_ENGINES",
    "COUNT_ADVERSARIES",
    "occupancy_round",
    "occupancy_round_batch",
    "occupancy_outcome_profiles",
    "occupancy_transition_matrix",
    "KernelInfo",
    "MultinomialKernelWarning",
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
