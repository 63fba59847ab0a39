"""Sweep builders for the paper's experiments.

Each builder returns a :class:`~repro.experiments.config.SweepConfig` whose
cells cover one experiment of the paper (one entry of
:data:`repro.experiments.figures.FIGURE_REGISTRY`).  The default grids are
laptop-sized; ``tests/test_theorems.py`` runs them at half size and the
figure functions rescale them with ``scale``.

Every builder accepts ``engine="vectorized" | "occupancy" | "occupancy-fused"``
and retargets all of its cells through
:meth:`~repro.experiments.config.SweepConfig.with_engine`, which asks
:func:`repro.experiments.runner.resolve_cell_engine` per cell; the occupancy
engines make the same sweeps feasible at n = 10⁸–10⁹ for fixed m (see
:mod:`repro.engine.occupancy`).  Each builder's ``engine`` default is the
sweep's own preference.  theorem10, figure1 and adversary-threshold default
to the fused multi-run occupancy engine
(:func:`repro.engine.batch.run_batch_fused_occupancy`, one (R, m) count
tensor per cell).  theorem1 asks for it too, but its all-distinct cells
(m = n) all resolve to ``"vectorized"``.  The other five (theorem2,
theorem3, theorem4, minimum-rule-attack, rule-comparison) default to
``"vectorized"``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.analysis.theory import adversary_budget_sqrt_n
from repro.experiments.config import ExperimentConfig, SweepConfig

__all__ = [
    "DEFAULT_ADVERSARY_CONSTANT",
    "theorem1_sweep",
    "theorem2_sweep",
    "theorem3_sweep",
    "theorem4_sweep",
    "theorem10_sweep",
    "minimum_rule_attack_sweep",
    "adversary_threshold_sweep",
    "figure1_sweep",
    "rule_comparison_sweep",
]

#: Adversary strength used by the default experiment sweeps, as a fraction of
#: sqrt(n).  The paper allows any T <= sqrt(n), but the hidden constant of the
#: CLT kick-start (Lemma 14 with the constant c required by Lemma 16) makes a
#: full-strength balancing adversary impractically slow to overcome at
#: laptop-scale n; T = 0.25*sqrt(n) keeps the per-round escape probability a
#: sizable constant while preserving the Theta(sqrt n) scaling of the
#: adversary with n.  The adversary-threshold sweep varies this constant to
#: exhibit the blow-up as it approaches and exceeds 1.
DEFAULT_ADVERSARY_CONSTANT = 0.25


def theorem1_sweep(ns: Sequence[int] = (64, 128, 256, 512, 1024, 2048),
                   num_runs: int = 20, seed: int = 101,
                   engine: str = "occupancy-fused") -> SweepConfig:
    """THM1: worst-case (all-distinct) initial state, no adversary, n sweep."""
    sweep = SweepConfig(
        name="theorem1",
        description="Median rule, all-distinct initial values, no adversary: "
                    "consensus in O(log n) rounds (Theorem 1).",
    )
    for n in ns:
        sweep.add(ExperimentConfig(
            name=f"n={n}",
            workload="all-distinct",
            workload_params={"n": int(n)},
            num_runs=num_runs,
            seed=seed,
        ))
    return sweep.with_engine(engine)


def theorem2_sweep(ns: Sequence[int] = (256, 1024, 4096),
                   ms: Sequence[int] = (2, 3, 4, 8),
                   num_runs: int = 10, seed: int = 202,
                   adversary: str = "balancing",
                   adversary_constant: float = DEFAULT_ADVERSARY_CONSTANT,
                   engine: str = "vectorized") -> SweepConfig:
    """THM2: constant number of values, √n-bounded adversary, O(log n) rounds."""
    sweep = SweepConfig(
        name="theorem2",
        description="Median rule with a sqrt(n)-bounded adversary and a constant "
                    "number of values: almost stable consensus in O(log n) rounds "
                    "(Theorem 2).",
    )
    for n in ns:
        budget = adversary_budget_sqrt_n(int(n), adversary_constant)
        for m in ms:
            sweep.add(ExperimentConfig(
                name=f"n={n},m={m},T={budget}",
                workload="blocks",
                workload_params={"n": int(n), "m": int(m)},
                adversary=adversary,
                adversary_budget=budget,
                num_runs=num_runs,
                seed=seed,
            ))
    return sweep.with_engine(engine)


def theorem3_sweep(n: int = 2048,
                   ms: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
                   ns: Sequence[int] = (256, 512, 1024, 2048, 4096),
                   m_for_n_sweep: int = 16,
                   num_runs: int = 10, seed: int = 303,
                   adversary_constant: float = DEFAULT_ADVERSARY_CONSTANT,
                   engine: str = "vectorized") -> SweepConfig:
    """THM3: m sweep at fixed n plus n sweep at fixed m, adversary T=sqrt(n)."""
    sweep = SweepConfig(
        name="theorem3",
        description="Median rule with sqrt(n)-bounded adversary and m values: "
                    "O(log m · log log n + log n) rounds (Theorem 3).",
    )
    for m in ms:
        budget = adversary_budget_sqrt_n(n, adversary_constant)
        sweep.add(ExperimentConfig(
            name=f"m-sweep:n={n},m={m}",
            workload="blocks",
            workload_params={"n": int(n), "m": int(m)},
            adversary="balancing",
            adversary_budget=budget,
            num_runs=num_runs,
            seed=seed,
        ))
    for n_i in ns:
        budget = adversary_budget_sqrt_n(int(n_i), adversary_constant)
        sweep.add(ExperimentConfig(
            name=f"n-sweep:n={n_i},m={m_for_n_sweep}",
            workload="blocks",
            workload_params={"n": int(n_i), "m": int(m_for_n_sweep)},
            adversary="balancing",
            adversary_budget=budget,
            num_runs=num_runs,
            seed=seed + 1,
        ))
    return sweep.with_engine(engine)


def theorem4_sweep(n: int = 4096,
                   ms: Sequence[int] = (3, 4, 5, 8, 9, 16, 17, 32, 33),
                   with_adversary: bool = False,
                   num_runs: int = 10, seed: int = 404,
                   adversary_constant: float = DEFAULT_ADVERSARY_CONSTANT,
                   engine: str = "vectorized") -> SweepConfig:
    """THM4/THM21/COR22: uniform-random initial state, odd vs even m."""
    label = "corollary22" if with_adversary else "theorem21"
    sweep = SweepConfig(
        name=label,
        description="Average case (uniform random assignment to m bins): "
                    "O(log m + log log n) for odd m, Θ(log n) for even m "
                    "(Theorems 4/21, Corollary 22).",
    )
    budget = adversary_budget_sqrt_n(n, adversary_constant) if with_adversary else 0
    for m in ms:
        sweep.add(ExperimentConfig(
            name=f"m={m}{'(odd)' if m % 2 else '(even)'}",
            workload="uniform-random",
            workload_params={"n": int(n), "m": int(m)},
            adversary="balancing" if with_adversary else "null",
            adversary_budget=budget,
            num_runs=num_runs,
            seed=seed,
        ))
    return sweep.with_engine(engine)


def theorem10_sweep(ns: Sequence[int] = (256, 1024, 4096, 16384),
                    num_runs: int = 10, seed: int = 505,
                    balanced: bool = True,
                    adversary_constant: float = DEFAULT_ADVERSARY_CONSTANT,
                    engine: str = "occupancy-fused") -> SweepConfig:
    """THM10: two bins (balanced worst case) with a sqrt(n)-bounded adversary."""
    sweep = SweepConfig(
        name="theorem10",
        description="Two bins with a sqrt(n)-bounded adversary: n - O(sqrt n) balls "
                    "agree within O(log n) rounds (Theorem 10).",
    )
    for n in ns:
        budget = adversary_budget_sqrt_n(int(n), adversary_constant)
        params = {"n": int(n)}
        if balanced:
            params["minority"] = int(n) // 2
        sweep.add(ExperimentConfig(
            name=f"n={n},T={budget}",
            workload="two-bins",
            workload_params=params,
            adversary="balancing",
            adversary_budget=budget,
            num_runs=num_runs,
            seed=seed,
        ))
    return sweep.with_engine(engine)


def minimum_rule_attack_sweep(n: int = 1024, num_runs: int = 10, seed: int = 606,
                              budget: int = 1, delay: int = 30,
                              engine: str = "vectorized") -> SweepConfig:
    """MINRULE: minimum rule vs median rule under a reviving adversary."""
    sweep = SweepConfig(
        name="minimum-rule-attack",
        description="The Section 1.1 counterexample: a 1-bounded reviving adversary "
                    "defeats the minimum rule but not the median rule.",
    )
    for rule in ("minimum", "median"):
        sweep.add(ExperimentConfig(
            name=f"{rule}-rule",
            workload="two-bins",
            workload_params={"n": int(n), "minority": max(budget, 1), "low": 0, "high": 1},
            rule=rule,
            adversary="reviving",
            adversary_budget=budget,
            adversary_params={"delay": delay, "target_value": 0},
            num_runs=num_runs,
            seed=seed,
            max_rounds=max(200, delay * 6),
        ))
    return sweep.with_engine(engine)


def adversary_threshold_sweep(n: int = 4096,
                              constants: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
                              num_runs: int = 10, seed: int = 707,
                              engine: str = "occupancy-fused") -> SweepConfig:
    """ADVBOUND: balancing adversary with T = c·sqrt(n) for a range of c."""
    sweep = SweepConfig(
        name="adversary-threshold",
        description="Tightness of the sqrt(n) adversary bound: convergence time of the "
                    "median rule against a balancing adversary with T = c*sqrt(n).",
    )
    root = math.isqrt(n)
    for c in constants:
        budget = int(round(c * root))
        sweep.add(ExperimentConfig(
            name=f"T={budget} (c={c})",
            workload="two-bins",
            workload_params={"n": int(n), "minority": n // 2},
            adversary="balancing" if budget > 0 else "null",
            adversary_budget=budget,
            num_runs=num_runs,
            seed=seed,
            max_rounds=400,
        ))
    return sweep.with_engine(engine)


def figure1_sweep(n: int = 1024, m_many: int = 32, num_runs: int = 10,
                  seed: int = 808,
                  adversary_constant: float = DEFAULT_ADVERSARY_CONSTANT,
                  engine: str = "occupancy-fused") -> SweepConfig:
    """FIG1: one cell per entry of the paper's Figure 1 summary table."""
    budget = adversary_budget_sqrt_n(n, adversary_constant)
    sweep = SweepConfig(
        name="figure1",
        description="All cells of the paper's Figure 1 results table at a fixed n.",
    )
    # worst-case 2 bins, with and without adversary
    sweep.add(ExperimentConfig(
        name="worst-2bins/adv", workload="two-bins",
        workload_params={"n": n, "minority": n // 2},
        adversary="balancing", adversary_budget=budget, num_runs=num_runs, seed=seed))
    sweep.add(ExperimentConfig(
        name="worst-2bins/noadv", workload="two-bins",
        workload_params={"n": n, "minority": n // 2},
        num_runs=num_runs, seed=seed))
    # worst-case m bins, with and without adversary
    sweep.add(ExperimentConfig(
        name=f"worst-{m_many}bins/adv", workload="blocks",
        workload_params={"n": n, "m": m_many},
        adversary="balancing", adversary_budget=budget, num_runs=num_runs, seed=seed))
    sweep.add(ExperimentConfig(
        name=f"worst-{m_many}bins/noadv", workload="blocks",
        workload_params={"n": n, "m": m_many},
        num_runs=num_runs, seed=seed))
    # average-case m bins (odd and even), with and without adversary
    for m, parity in ((m_many + 1, "odd"), (m_many, "even")):
        sweep.add(ExperimentConfig(
            name=f"avg-{m}bins({parity})/adv", workload="uniform-random",
            workload_params={"n": n, "m": m},
            adversary="balancing", adversary_budget=budget, num_runs=num_runs, seed=seed))
        sweep.add(ExperimentConfig(
            name=f"avg-{m}bins({parity})/noadv", workload="uniform-random",
            workload_params={"n": n, "m": m},
            num_runs=num_runs, seed=seed))
    return sweep.with_engine(engine)


def rule_comparison_sweep(n: int = 1024, m: int = 16, num_runs: int = 10,
                          seed: int = 909,
                          rules: Sequence[str] = ("median", "voter", "three-majority",
                                                  "minimum"),
                          engine: str = "vectorized") -> SweepConfig:
    """Ablation: the power of two choices — median vs one-choice and other rules."""
    sweep = SweepConfig(
        name="rule-comparison",
        description="Convergence of the median rule vs voter (one choice), 3-majority "
                    "and minimum rules from the same initial states.",
    )
    for rule in rules:
        sweep.add(ExperimentConfig(
            name=f"rule={rule}",
            workload="blocks",
            workload_params={"n": int(n), "m": int(m)},
            rule=rule,
            num_runs=num_runs,
            seed=seed,
            max_rounds=30 * int(math.log2(n)) if rule != "voter" else 40 * n,
        ))
    return sweep.with_engine(engine)
