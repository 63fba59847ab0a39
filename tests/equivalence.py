"""Reusable statistical-equivalence harness for engine certification.

Every fast engine in this library (occupancy, occupancy-fused) claims to be
*equal in law* to the reference vectorized engine — not sample-path equal for
a shared seed, since the substrates consume randomness differently — and so
does the agent-level network simulator when no request is ever dropped.  This
module is the single place where that claim is turned into assertions, so
every current and future kernel is pinned by the same machinery instead of
hand-rolled per-test comparisons:

* **Paired-run distribution checks** over convergence rounds
  (:func:`collect_convergence_rounds` + :func:`assert_means_close`,
  :func:`assert_variances_close`, :func:`assert_ks_close`): ≥200 independent
  runs per engine with fixed seed roots; means agree within a 6-sigma Welch
  tolerance, variances within the sampling tolerance of a ~200-run estimate,
  and the full empirical CDFs within a two-sample Kolmogorov–Smirnov bound
  (ties from the integer-valued rounds only make the bound conservative).

* **Trajectory checks** (:func:`collect_minority_trajectories`): the mean
  minority-count series round by round over a fixed horizon, Welch-compared
  per round — this catches kernels that reach the right fixed point through
  the wrong dynamics.

* **One-round exact-flow checks**
  (:func:`one_round_occupancy_sampler` + :func:`assert_one_round_flows_match`):
  the full distribution over complete next-round occupancy outcomes at tiny n,
  compared by L1 (= 2·TV) distance against the sampling noise of identical
  laws, E[L1] ≲ 0.8·sqrt(2K/trials) for K observed outcomes.  Adversaries run
  through the *real* engine entry points (``simulate`` /
  ``simulate_occupancy`` with a one-round horizon), so corruption placement
  and the victim-occupancy split-scatter are certified, not re-implemented.

Scenarios are declared once (:class:`EquivalenceScenario`: rule × adversary ×
geometry) and executed against any engine name, so a new kernel or a new
count-space adversary gets full certification by adding one scenario line.
Seeds are fixed throughout — the tests built on this harness are
deterministic, and the tolerances are sized so a correct implementation
passes with wide margin while an off-by-one in a transition CDF (e.g. using
``F_a`` where ``F_{a-1}`` belongs) fails immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.adversary.base import Adversary
from repro.core.rules import Rule
from repro.core.state import Configuration
from repro.engine.batch import run_batch_fused_occupancy
from repro.engine.occupancy import simulate_occupancy
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import simulate
from repro.experiments.workloads import blocks_workload
from repro.network.simulator import NetworkSimulator

__all__ = [
    "DEFAULT_RUNS",
    "SINGLE_RUN_ENGINES",
    "simulate_network",
    "EquivalenceScenario",
    "collect_convergence_rounds",
    "collect_minority_trajectories",
    "assert_means_close",
    "assert_variances_close",
    "ks_statistic",
    "assert_ks_close",
    "assert_rounds_equivalent",
    "one_round_occupancy_sampler",
    "empirical_outcome_histogram",
    "l1_distance",
    "assert_one_round_flows_match",
]

#: Runs per engine per scenario for the paired-run distribution checks.
DEFAULT_RUNS = 200


def simulate_network(initial: Configuration, rule: Rule, adversary: Optional[Adversary],
                     *, seed: int, max_rounds: int,
                     record: RecordLevel = RecordLevel.METRICS) -> SimulationResult:
    """One :class:`NetworkSimulator` run with a request cap of ``n·k``.

    Every process sends ``k`` requests a round, so no destination can ever
    receive more than ``n·k``: nothing is dropped and the law is exactly the
    vectorized engine's.
    """
    sim = NetworkSimulator(initial, rule=rule, adversary=adversary, seed=seed,
                           capacity=initial.n * rule.num_choices)
    return sim.run(max_rounds=max_rounds, record=record)


#: Engines with a single-run entry point (the fused engine only exists as a
#: batch and is compared through :func:`collect_convergence_rounds`; the
#: network engine has no ``run_to_horizon`` and only collects rounds).
SINGLE_RUN_ENGINES = {"vectorized": simulate, "occupancy": simulate_occupancy,
                      "network": simulate_network}


@dataclass(frozen=True)
class EquivalenceScenario:
    """One rule × adversary × geometry cell of the certification grid.

    ``adversary_factory`` builds a *fresh* adversary per run (adversaries
    carry per-run state such as victim occupancies); ``None`` means no
    adversary.  The initial state is the deterministic ``blocks`` workload —
    the worst-case m-value state — unless ``initial_factory`` overrides it.
    """

    name: str
    n: int
    m: int
    rule_factory: Callable[[], Rule]
    adversary_factory: Optional[Callable[[], Adversary]] = None
    horizon: int = 400
    initial_factory: Optional[Callable[[], Configuration]] = None

    def initial(self) -> Configuration:
        if self.initial_factory is not None:
            return self.initial_factory()
        return blocks_workload(self.n, self.m)

    def make_adversary(self) -> Optional[Adversary]:
        return self.adversary_factory() if self.adversary_factory else None


# ---------------------------------------------------------------------- #
# sample collection
# ---------------------------------------------------------------------- #
def collect_convergence_rounds(engine: str, sc: EquivalenceScenario,
                               runs: int = DEFAULT_RUNS,
                               seed_base: int = 0) -> np.ndarray:
    """Convergence rounds of ``runs`` independent runs (NaN if not converged)."""
    if engine == "occupancy-fused":
        batch = run_batch_fused_occupancy(
            sc.initial(), runs, rule=sc.rule_factory(),
            adversary_factory=sc.adversary_factory,
            seed=seed_base, max_rounds=sc.horizon)
        assert batch.meta["budget_ledger_ok"] is True
        return np.asarray(batch.rounds, dtype=np.float64)
    simulate_fn = SINGLE_RUN_ENGINES[engine]
    init = sc.initial()
    out = np.full(runs, np.nan)
    for i in range(runs):
        res = simulate_fn(init, rule=sc.rule_factory(),
                          adversary=sc.make_adversary(),
                          seed=seed_base + i, max_rounds=sc.horizon,
                          record=RecordLevel.NONE)
        r = res.convergence_round()
        if r is not None:
            out[i] = r
    return out


def collect_minority_trajectories(engine: str, sc: EquivalenceScenario,
                                  runs: int = DEFAULT_RUNS,
                                  seed_base: int = 0,
                                  rounds: int = 12) -> np.ndarray:
    """``(runs, rounds+1)`` minority counts over a fixed horizon (single-run engines)."""
    simulate_fn = SINGLE_RUN_ENGINES[engine]
    init = sc.initial()
    out = np.empty((runs, rounds + 1))
    for i in range(runs):
        res = simulate_fn(init, rule=sc.rule_factory(),
                          adversary=sc.make_adversary(),
                          seed=seed_base + i, max_rounds=rounds,
                          run_to_horizon=True, record=RecordLevel.METRICS)
        out[i] = res.trajectory.minority_series()
    return out


# ---------------------------------------------------------------------- #
# distribution assertions
# ---------------------------------------------------------------------- #
def assert_means_close(a: np.ndarray, b: np.ndarray, label: str,
                       sigmas: float = 6.0, abs_slack: float = 0.75) -> None:
    """Welch-style two-sample check: |mean_a − mean_b| within ``sigmas`` SEs."""
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    assert a.size and b.size, f"{label}: an engine never converged"
    se = float(np.sqrt(np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size))
    diff = abs(float(np.mean(a)) - float(np.mean(b)))
    assert diff <= sigmas * se + abs_slack, (
        f"{label}: means {np.mean(a):.3f} vs {np.mean(b):.3f} "
        f"differ by {diff:.3f} > {sigmas}·SE + {abs_slack} = {sigmas * se + abs_slack:.3f}"
    )


def assert_variances_close(a: np.ndarray, b: np.ndarray, label: str,
                           factor: float = 2.5, abs_slack: float = 1.5) -> None:
    """Sample variances of ~200 draws agree within sampling tolerance."""
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    assert va <= factor * vb + abs_slack and vb <= factor * va + abs_slack, (
        f"{label}: variances {va:.3f} vs {vb:.3f} differ beyond "
        f"factor {factor} + {abs_slack}"
    )


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic sup|F_a − F_b| (NaNs dropped)."""
    a = np.sort(a[~np.isnan(a)])
    b = np.sort(b[~np.isnan(b)])
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def assert_ks_close(a: np.ndarray, b: np.ndarray, label: str,
                    scale: float = 2.5, abs_slack: float = 0.02) -> None:
    """Full-CDF check: the KS statistic stays under the identical-law bound.

    For samples from the same law, ``P(D > c·sqrt((n_a+n_b)/(n_a·n_b)))`` is
    about ``2·exp(−2c²)`` — below 1e-5 at the default ``c = 2.5`` — and the
    integer-valued convergence rounds (heavy ties) only shrink D further, so
    the bound is conservative.
    """
    a_clean = a[~np.isnan(a)]
    b_clean = b[~np.isnan(b)]
    assert a_clean.size and b_clean.size, f"{label}: an engine never converged"
    d = ks_statistic(a, b)
    bound = scale * float(np.sqrt((a_clean.size + b_clean.size)
                                  / (a_clean.size * b_clean.size))) + abs_slack
    assert d <= bound, (
        f"{label}: KS statistic {d:.4f} exceeds identical-law bound {bound:.4f} "
        f"(n_a={a_clean.size}, n_b={b_clean.size})"
    )


def assert_rounds_equivalent(a: np.ndarray, b: np.ndarray, label: str,
                             max_nonconverged: float = 0.02) -> None:
    """The full paired-run bundle: convergence fraction + mean + variance + KS."""
    assert np.isnan(a).mean() <= max_nonconverged, f"{label}: engine A rarely converged"
    assert np.isnan(b).mean() <= max_nonconverged, f"{label}: engine B rarely converged"
    assert_means_close(a, b, f"{label} convergence round")
    assert_variances_close(a, b, f"{label} convergence round")
    assert_ks_close(a, b, f"{label} convergence round")


# ---------------------------------------------------------------------- #
# one-round exact-flow checks
# ---------------------------------------------------------------------- #
def one_round_occupancy_sampler(engine: str, sc: EquivalenceScenario,
                                seed: int) -> Callable[[], Tuple[int, ...]]:
    """A zero-argument sampler of the occupancy after exactly one engine round.

    Drives the real engine entry point (one-round horizon, fresh adversary
    per draw, one shared RNG stream) so corruption timing, budget
    enforcement, and the victim-occupancy split-scatter are all part of what
    gets certified.  The returned tuple counts every initial value of the
    scenario's configuration, in sorted value order.
    """
    simulate_fn = SINGLE_RUN_ENGINES[engine]
    init = sc.initial()
    support = np.unique(init.copy_values())
    rng = np.random.default_rng(seed)

    def draw() -> Tuple[int, ...]:
        res = simulate_fn(init, rule=sc.rule_factory(),
                          adversary=sc.make_adversary(), seed=rng,
                          max_rounds=1, run_to_horizon=True,
                          record=RecordLevel.NONE)
        final = res.final
        if isinstance(final, Configuration):
            values = final.copy_values()
            return tuple(int(np.sum(values == v)) for v in support)
        counts = np.zeros(support.shape[0], dtype=np.int64)
        idx = np.searchsorted(support, final.support)
        inside = (idx < support.shape[0])
        np.add.at(counts, idx[inside], final.counts[inside])
        return tuple(int(c) for c in counts)

    return draw


def empirical_outcome_histogram(sampler: Callable[[], Tuple[int, ...]],
                                trials: int) -> Dict[Tuple[int, ...], int]:
    """Histogram of ``trials`` draws over complete occupancy outcomes."""
    hist: Dict[Tuple[int, ...], int] = {}
    for _ in range(trials):
        key = sampler()
        hist[key] = hist.get(key, 0) + 1
    return hist


def l1_distance(hist_a: Dict[Tuple[int, ...], int],
                hist_b: Dict[Tuple[int, ...], int], trials: int) -> Tuple[float, int]:
    """L1 distance between two empirical outcome laws and the support size."""
    keys = set(hist_a) | set(hist_b)
    l1 = sum(abs(hist_a.get(k, 0) - hist_b.get(k, 0)) for k in keys) / trials
    return l1, len(keys)


def assert_one_round_flows_match(sc: EquivalenceScenario,
                                 engines: Tuple[str, str] = ("vectorized", "occupancy"),
                                 trials: int = 3000,
                                 seed_base: int = 0,
                                 label: Optional[str] = None) -> None:
    """One-round exact-flow check: the two engines' next-occupancy laws agree.

    Uses the L1 (= 2·TV) distance between the empirical outcome histograms
    with the identical-law noise scale E[L1] ≲ 0.8·sqrt(2K/trials).
    """
    label = label or sc.name
    hist_a = empirical_outcome_histogram(
        one_round_occupancy_sampler(engines[0], sc, seed_base), trials)
    hist_b = empirical_outcome_histogram(
        one_round_occupancy_sampler(engines[1], sc, seed_base + 1), trials)
    l1, k = l1_distance(hist_a, hist_b, trials)
    noise = 0.8 * float(np.sqrt(2 * k / trials))
    assert l1 < max(3 * noise, 0.05), (
        f"{label}: one-round {engines[0]} vs {engines[1]} laws differ — "
        f"L1 {l1:.4f} over {k} outcomes (noise scale {noise:.4f})"
    )
