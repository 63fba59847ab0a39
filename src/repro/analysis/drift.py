"""Expected-drift formulas of the two-bin analysis (Lemmas 11, 12 and 15).

The proofs of Section 3 rest on three regimes of the minority load
``X_t = n/2 − Δ_t``:

* **Lemma 12 regime** (``c·sqrt(n log n) ≤ Δ < n/3``): the expected next
  minority load satisfies ``E[X_{t+1}] ≤ (1 − δ_t/2)·X_t`` with
  ``δ_t = Δ_t/n``, i.e. the imbalance grows by a constant factor
  (``Δ_{t+1} ≥ (10/9)·Δ_t`` w.h.p. after accounting for the adversary).
* **Lemma 15 regime** (``Δ ≥ c·sqrt(n)``): ``E[Δ_{t+1}] ≥ (3/2)·Δ_t`` and
  ``Δ_{t+1} ≥ (4/3)·Δ_t`` with probability ``1 − exp(−Θ(Δ_t²/n))``.
* **Lemma 11 regime** (``X_t ≤ n/4``): quadratic collapse,
  ``E[X_{t+1}] ≤ 3·X_t²/n``, so the minority dies out in O(log log n) rounds.

All three expectations follow from the exact per-ball switch probabilities
(:func:`repro.core.majority_rule.exact_two_bin_transition`); this module
exposes them in the paper's notation and provides empirical-drift
measurement helpers used by the tests.

Beyond the two-bin closed forms, :func:`occupancy_expected_counts` /
:func:`occupancy_expected_drift` compute the exact one-round expected
occupancy ``E[c' | c] = cᵀQ`` for *any* rule with an occupancy-space kernel
(median family, voter/min/max, three-majority, two-choices-majority) at any
support width, by reusing the O(m²) transition matrix of
:mod:`repro.engine.occupancy`.  This is the finite-n refinement of the
mean-field iteration (:func:`repro.analysis.meanfield.cdf_map`): dividing by
n and taking cumulative sums recovers the mean-field CDF map as n → ∞, while
at finite n the matrix carries the exact per-class probabilities (e.g. the
without-replacement corrections).  The two-bin closed forms above are the
m = 2 special case, which the tests pin against the general machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.majority_rule import exact_two_bin_transition
from repro.core.rules import Rule

__all__ = [
    "expected_minority_next",
    "expected_imbalance_next",
    "lemma12_contraction_factor",
    "lemma11_quadratic_bound",
    "lemma15_growth_factor",
    "occupancy_expected_counts",
    "occupancy_expected_drift",
    "DriftObservation",
    "measure_empirical_drift",
    "measure_empirical_occupancy_drift",
]


def expected_minority_next(n: int, minority: int) -> float:
    """``E[X_{t+1}]`` given ``X_t = minority`` (exact, no adversary).

    Equals ``minority · (1 − p_leave) + (n − minority) · p_join`` where the
    two probabilities come from the exact two-bin transition.  The closed
    form matches the paper's ``(1/2 − (3/2)δ + 2δ³)·n`` (proof of Lemma 12).
    """
    p_leave, p_join = exact_two_bin_transition(n, minority)
    return minority * (1.0 - p_leave) + (n - minority) * p_join


def expected_imbalance_next(n: int, imbalance: float) -> float:
    """``E[Δ_{t+1}]`` given ``Δ_t`` (exact, no adversary)."""
    minority = n / 2.0 - imbalance
    if minority < 0 or minority > n:
        raise ValueError("imbalance out of range for this n")
    # work with the continuous extension of the switch probabilities
    x = minority / n
    p_leave = (1.0 - x) ** 2
    p_join = x * x
    expected_minority = minority * (1.0 - p_leave) + (n - minority) * p_join
    return n / 2.0 - expected_minority


def lemma12_contraction_factor(n: int, minority: int) -> float:
    """The factor ``E[X_{t+1}] / X_t`` in the Lemma 12 regime.

    The paper shows it is at most ``1 − δ_t/2`` for ``δ_t < 1/3``; callers
    (``tests/test_analysis_drift_clt.py``) compare the exact value against
    that bound.
    """
    if minority <= 0:
        raise ValueError("minority must be positive")
    return expected_minority_next(n, minority) / minority


def lemma11_quadratic_bound(n: int, minority: int) -> float:
    """Lemma 11's quadratic-collapse bound ``E[X_{t+1}] ≤ 3·X_t²/n``.

    Valid once the minority is at most ``n/4``; returns the bound value.
    """
    return 3.0 * minority * minority / n


def lemma15_growth_factor(n: int, imbalance: float) -> float:
    """The exact factor ``E[Δ_{t+1}] / Δ_t`` (Lemma 15 states it is ≥ 3/2).

    Exactly, ``E[Δ_{t+1}] = (3/2 − 2δ_t²)·Δ_t`` with ``δ_t = Δ_t/n``, so the
    factor sits just below 3/2 for small imbalances and decreases towards 1
    as the process saturates at consensus (Lemma 15's "(3/2)Δ_t" drops the
    lower-order ``2δ²`` term).
    """
    if imbalance <= 0:
        raise ValueError("imbalance must be positive")
    return expected_imbalance_next(n, imbalance) / imbalance


# ---------------------------------------------------------------------- #
# exact expected drift in occupancy space (any kernel rule, any m)
# ---------------------------------------------------------------------- #
def occupancy_expected_counts(rule: Rule, counts: np.ndarray) -> np.ndarray:
    """Exact ``E[c' | c]`` for one synchronous round of ``rule``.

    One round scatters each value class ``a`` as ``Multinomial(c_a, Q[a])``
    (see :func:`repro.engine.occupancy.occupancy_round`), so the expected
    next occupancy is the linear image ``E[c'] = cᵀQ`` of the current counts
    through the O(m²) transition matrix — exact at finite n, no mean-field
    approximation.  Returns a float vector summing to ``n``.

    This refines :func:`repro.analysis.meanfield.cdf_map`: for the median
    rule, ``cumsum(occupancy_expected_counts(rule, c)) / n`` equals
    ``cdf_map(cumsum(c) / n)`` exactly (the map is already written in load
    fractions); for finite-n kernels such as the without-replacement median
    the matrix additionally carries the O(1/n) corrections the mean-field
    limit drops.
    """
    from repro.engine.occupancy import occupancy_transition_matrix

    counts = np.asarray(counts, dtype=np.int64)
    Q = occupancy_transition_matrix(rule, counts)
    return counts.astype(np.float64) @ Q


def occupancy_expected_drift(rule: Rule, counts: np.ndarray) -> np.ndarray:
    """Exact one-round expected drift ``E[c' − c | c]`` per value class.

    Componentwise difference of :func:`occupancy_expected_counts` and the
    current counts; sums to zero (population conservation).  For m = 2 and
    the median rule its first component reduces to
    ``expected_minority_next(n, c₀) − c₀`` — the Lemma 11/12/15 drifts are
    the two-bin special case of this vector.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return occupancy_expected_counts(rule, counts) - counts


@dataclass(frozen=True)
class DriftObservation:
    """One empirical drift measurement: observed vs. predicted next state."""

    n: int
    minority_before: int
    minority_after_mean: float
    predicted_mean: float
    samples: int

    @property
    def relative_error(self) -> float:
        denom = max(abs(self.predicted_mean), 1e-12)
        return abs(self.minority_after_mean - self.predicted_mean) / denom


def measure_empirical_drift(
    n: int,
    minority: int,
    samples: int,
    rng: np.random.Generator,
) -> DriftObservation:
    """Monte-Carlo estimate of ``E[X_{t+1}]`` from a fixed two-bin state.

    Runs ``samples`` independent single rounds of the majority rule from the
    configuration with ``minority`` balls in bin 0 and compares the empirical
    mean of the next minority-bin load to :func:`expected_minority_next`.
    The simulation is fused across samples (one ``(samples, n)`` array), so
    the measurement is cheap even for large ``n``.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    values = np.zeros((samples, n), dtype=np.int64)
    values[:, minority:] = 1
    contacts = rng.integers(0, n, size=(samples, n, 2))
    vj = np.take_along_axis(values, contacts[:, :, 0], axis=1)
    vk = np.take_along_axis(values, contacts[:, :, 1], axis=1)
    lo = np.minimum(values, vj)
    hi = np.maximum(values, vj)
    new_values = np.maximum(lo, np.minimum(hi, vk))
    next_minority = (new_values == 0).sum(axis=1)
    return DriftObservation(
        n=n,
        minority_before=minority,
        minority_after_mean=float(next_minority.mean()),
        predicted_mean=expected_minority_next(n, minority),
        samples=samples,
    )


def measure_empirical_occupancy_drift(
    rule: Rule,
    counts: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> Dict[str, np.ndarray]:
    """Monte-Carlo check of :func:`occupancy_expected_counts` from a fixed state.

    Draws ``samples`` independent single occupancy rounds from ``counts`` (one
    batched ``(samples, m)`` program) and returns the empirical mean next
    occupancy, the exact prediction, and the per-bin standard error — callers
    assert ``|mean − predicted| ≤ k·SE`` (a CLT bound; used by the drift tests
    and the three-majority + sticky cell of the fused-engine tests).
    """
    from repro.engine.occupancy import occupancy_round_batch

    if samples <= 0:
        raise ValueError("samples must be positive")
    counts = np.asarray(counts, dtype=np.int64)
    tiled = np.tile(counts, (samples, 1))
    out = occupancy_round_batch(tiled, rule, rng).astype(np.float64)
    mean = out.mean(axis=0)
    se = out.std(axis=0, ddof=1) / np.sqrt(samples)
    return {
        "mean": mean,
        "predicted": occupancy_expected_counts(rule, counts),
        "standard_error": se,
    }
