"""Exact occupancy-space simulation engine: O(m²) per round, independent of n.

The vectorized engine (:mod:`repro.engine.vectorized`) stores one value per
process and pays O(n) work per round.  But every anonymous symmetric rule —
in particular the paper's median rule — is a function of the configuration
only through its *occupancy vector* (how many processes hold each of the m
distinct values), and conditionally on the current occupancy the n per-process
updates are independent draws from a per-value-class outcome distribution.
One synchronous round therefore collapses to m multinomial draws:

    for each value class a with c_a holders,
        N_a ~ Multinomial(c_a, q^(a))          # q^(a) over the m classes
    c'_b = Σ_a N_a[b]

where ``q^(a)_b`` is the probability that a holder of the a-th smallest value
ends the round holding the b-th smallest value.  For the median-of-(k+1)
family this distribution has a closed form in the cumulative load fractions
``F_b`` (the same CDF the mean-field model iterates — see
:mod:`repro.analysis.meanfield`): the new value is ≤ the b-th value iff at
least ``⌊k/2⌋`` (own value already below) or ``⌊k/2⌋+1`` (own value above) of
the k uniform samples land at or below it, i.e. a binomial tail in ``F_b``.

This makes the engine **exact**: the occupancy vector it produces after each
round has *identically the same distribution* as counting the vectorized
engine's value array — verified by ``tests/test_engine_differential.py``.
It is not sample-path identical for a shared seed (the two engines consume
randomness differently), only equal in law.

Cost per round is O(m²) for the transition matrix and draws, with **no
dependence on n**, so n = 10⁸–10⁹ runs cost the same as n = 10⁴ for fixed m
(guarded by ``test_round_cost_flat_in_n`` in ``tests/test_engine_occupancy.py``).

Supported rules: :class:`~repro.core.median_rule.MedianRule`,
:class:`~repro.core.median_rule.BestOfKMedianRule` (any k),
:class:`~repro.core.median_rule.MedianRuleWithoutReplacement` (exact finite-n
pair-without-replacement kernel), the single-choice baselines
(voter, minimum, maximum), and the majority family
(:class:`~repro.core.baseline_rules.TwoChoicesMajorityRule` — classic
3-majority — and :class:`~repro.core.baseline_rules.TwoChoicesRule` — classic
2-Choices), whose majority-of-k-samples outcome distributions also close over
the load pmf.  Rules may also provide their own kernel by defining
``occupancy_kernel(support, counts) -> (m, m) matrix``.

Adversaries act through budgeted *count edits*
(:meth:`repro.adversary.base.Adversary.corrupt_counts`), reusing the same
budget ledger as the vectorized engine.  Identity-tracking strategies
(sticky, hiding) are expressed exactly by tracking their victims' *occupancy*
instead of their identities: the engine splits each round's scatter into an
independent civilian draw and victim draw (:func:`occupancy_round_split`) and
keeps the victims' new occupancy for the adversary's next round (the
strategy's state, returned through
:meth:`~repro.adversary.base.Adversary.victim_counts` when the run ends) —
scattering two disjoint subpopulations separately is distributionally
identical to scattering their union, so the split is exact, not an
approximation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.adversary.base import Adversary, NullAdversary
from repro.core.baseline_rules import (
    MaximumRule,
    MinimumRule,
    TwoChoicesMajorityRule,
    TwoChoicesRule,
    VoterRule,
)
from repro.core.consensus import AlmostStableCriterion, ConsensusStatus
from repro.core.median_rule import (
    BestOfKMedianRule,
    MedianRule,
    MedianRuleWithoutReplacement,
)
from repro.core.occupancy_state import MATERIALIZE_LIMIT_DEFAULT, OccupancyState
from repro.core.rules import RULE_REGISTRY, Rule
from repro.core.state import Configuration
from repro.engine import _multinomial as _mnk
from repro.engine.rng import make_rng
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel, TrajectoryRecorder

__all__ = [
    "OCCUPANCY_RULES",
    "OCCUPANCY_KERNEL_RULE_TYPES",
    "binomial_sf",
    "occupancy_outcome_profiles",
    "occupancy_transition_matrix",
    "occupancy_transition_matrix_batch",
    "occupancy_round",
    "occupancy_round_batch",
    "occupancy_round_split",
    "occupancy_round_batch_split",
    "simulate_occupancy",
]

#: Full-configuration trajectory recording is refused above this n.
_FULL_RECORD_LIMIT = 100_000

#: The transition matrix has m² float64 entries; beyond this support width a
#: single round would allocate gigabytes, and the vectorized engine is the
#: better substrate anyway (occupancy wins only when m ≪ n).
MAX_SUPPORT_DEFAULT = 10_000

#: Rule classes :func:`occupancy_transition_matrix` can dispatch on (plus any
#: rule providing its own ``occupancy_kernel``).  Shared with the batch
#: layer's support checks so the two cannot drift.
OCCUPANCY_KERNEL_RULE_TYPES = (MedianRule, BestOfKMedianRule, VoterRule,
                               MinimumRule, MaximumRule,
                               TwoChoicesMajorityRule, TwoChoicesRule)

#: Registry names of the rules with an occupancy-space kernel, so sweeps can
#: be filtered *before* work is spent.
OCCUPANCY_RULES = frozenset(
    name for name, cls in RULE_REGISTRY.items()
    if issubclass(cls, OCCUPANCY_KERNEL_RULE_TYPES)
    or callable(getattr(cls, "occupancy_kernel", None))
)


# ---------------------------------------------------------------------- #
# transition-matrix kernels
# ---------------------------------------------------------------------- #
def binomial_sf(k: int, r: int, x: np.ndarray) -> np.ndarray:
    """``P(Binomial(k, x) >= r)`` element-wise over success probabilities ``x``.

    Exact finite sum (k is the rule's small sample count, so no special
    functions are needed).
    """
    x = np.asarray(x, dtype=np.float64)
    if r <= 0:
        return np.ones_like(x)
    if r > k:
        return np.zeros_like(x)
    out = np.zeros_like(x)
    for j in range(r, k + 1):
        out += math.comb(k, j) * np.power(x, j) * np.power(1.0 - x, k - j)
    return np.clip(out, 0.0, 1.0)


def _normalize_rows(Q: np.ndarray) -> np.ndarray:
    """Clip floating-point negatives and renormalize each row to sum to 1."""
    Q = np.clip(Q, 0.0, None)
    sums = Q.sum(axis=-1, keepdims=True)
    np.divide(Q, sums, out=Q, where=sums > 0)
    return Q


def _check_counts(counts: np.ndarray) -> np.ndarray:
    """Refuse a support too wide for m² memory or an empty population;
    return the population size of each row."""
    m = counts.shape[-1]
    if m > MAX_SUPPORT_DEFAULT:
        raise ValueError(
            f"support width m={m} needs an m²={m * m:,}-entry transition matrix "
            f"({m * m * 8 / 1e9:.1f} GB); the occupancy engine targets m ≪ n — "
            "use the vectorized engine for wide supports"
        )
    n_per_row = counts.sum(axis=-1)
    if np.any(n_per_row == 0):
        raise ValueError("cannot build a transition for an empty population")
    return n_per_row


def occupancy_outcome_profiles(
        rule: Rule, counts: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Band profiles ``(lo, hi, diag)`` of a built-in rule's outcome matrix.

    This is the one place each built-in rule's outcome law is written.
    Every built-in occupancy kernel produces a matrix of the form
    ``Q[a, b] = lo[b]`` for ``b < a``, ``hi[b]`` for ``b > a`` and
    ``diag[a]`` for ``b = a`` (up to the per-row clip/renormalization of
    :func:`_normalize_rows`, which cancels out of every conditional ratio a
    sampler draws from).  The dense matrix of
    :func:`occupancy_transition_matrix` is this band, and the banded
    structure is what lets the compiled backend scatter a whole run with
    O(m) binomial draws instead of O(m²)
    (:func:`repro.engine._multinomial.sample_scatter_banded`).

    ``counts`` may carry leading batch dimensions ``(..., m)``; the profiles
    come back with the same leading shape.  Returns ``None`` for rules
    outside the built-in families (including any rule providing its own
    ``occupancy_kernel`` hook — those go through the dense path).  Raises
    the same errors as :func:`occupancy_transition_matrix` for invalid
    inputs so routing through profiles never changes the error surface.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_per_row = _check_counts(counts)
    if callable(getattr(rule, "occupancy_kernel", None)):
        return None
    if not isinstance(rule, OCCUPANCY_KERNEL_RULE_TYPES):
        return None
    cdf = np.cumsum(counts, axis=-1).astype(np.float64) / n_per_row[..., None]
    zeros = np.zeros_like(cdf[..., :1])

    if isinstance(rule, MedianRuleWithoutReplacement) and np.all(n_per_row >= 3):
        # the ordered contact pair is uniform over distinct non-self pairs:
        # with cumulative counts C_b and D = (n−1)(n−2), both contacts are
        # ≤ b with probability C_b(C_b − 1)/D (b < a: self is above b) and
        # ≥ b with probability U_b(U_b − 1)/D, U_b = n − C_{b−1} (b > a)
        n = int(n_per_row.ravel()[0])
        if counts.ndim > 1 and np.any(n_per_row != n):
            raise ValueError(
                "batched without-replacement kernel needs a uniform n")
        C = np.cumsum(counts, axis=-1).astype(np.float64)
        C_prev = np.concatenate([zeros, C[..., :-1]], axis=-1)
        D = float(n - 1) * float(n - 2)
        below = C * (C - 1.0) / D
        above = (n - C_prev) * (n - C_prev - 1.0) / D
        lo = np.diff(below, prepend=0.0, axis=-1)
        hi = -np.diff(above, append=0.0, axis=-1)
        below_prev = np.concatenate([zeros, below[..., :-1]], axis=-1)
        above_next = np.concatenate([above[..., 1:], zeros], axis=-1)
        diag = 1.0 - below_prev - above_next
        return lo, hi, diag
    if isinstance(rule, (MedianRule, BestOfKMedianRule)):
        # median of own value and k samples, r = ⌊k/2⌋: the new value is
        # ≤ b iff ≥ r (b ≥ a, own value helps) or ≥ r + 1 (b < a) of the k
        # samples land at or below b — a binomial tail in the CDF F_b.
        # MedianRuleWithoutReplacement with some n < 3 lands here too: the
        # rule itself falls back to with-replacement sampling below n = 3
        k = rule.k if isinstance(rule, BestOfKMedianRule) else 2
        r = k // 2
        s_hi = binomial_sf(k, r, cdf)
        s_lo = binomial_sf(k, r + 1, cdf)
        lo = np.diff(s_lo, prepend=0.0, axis=-1)
        hi = np.diff(s_hi, prepend=0.0, axis=-1)
        s_lo_prev = np.concatenate([zeros, s_lo[..., :-1]], axis=-1)
        diag = s_hi - s_lo_prev
        return lo, hi, diag

    p = np.diff(cdf, prepend=0.0, axis=-1)
    if isinstance(rule, VoterRule):
        return p, p, p
    if isinstance(rule, MinimumRule):
        # adopt the sample iff it is smaller, keep own value otherwise
        F_prev = np.concatenate([zeros, cdf[..., :-1]], axis=-1)
        return p, np.zeros_like(p), 1.0 - F_prev
    if isinstance(rule, MaximumRule):
        return np.zeros_like(p), p, cdf
    if isinstance(rule, TwoChoicesMajorityRule):
        # 3-majority: b wins iff ≥ 2 of three samples equal it, or all three
        # differ and the tie-break picks it — q_b = p_b (1 + p_b − Σ p_c²)
        s2 = np.sum(p * p, axis=-1, keepdims=True)
        q = p * (1.0 + p - s2)
        return q, q, q
    if isinstance(rule, TwoChoicesRule):
        # 2-Choices: switch to b ≠ a iff both samples land on b
        p2 = p * p
        s2 = np.sum(p2, axis=-1, keepdims=True)
        return p2, p2, 1.0 - s2 + p2
    return None


def _builtin_band(rule: Rule, counts: np.ndarray) -> np.ndarray:
    """The dense band of a built-in rule's profiles, rows renormalized."""
    profiles = occupancy_outcome_profiles(rule, counts)
    if profiles is None:
        raise TypeError(
            f"rule {rule.name!r} has no occupancy-space kernel; supported "
            f"rules are {', '.join(sorted(OCCUPANCY_RULES))}, or any rule "
            "defining occupancy_kernel(support, counts)"
        )
    lo, hi, diag = profiles
    m = counts.shape[-1]
    a_idx = np.arange(m)[:, None]
    b_idx = np.arange(m)[None, :]
    Q = np.where(b_idx < a_idx, lo[..., None, :],
                 np.where(b_idx > a_idx, hi[..., None, :], diag[..., None, :]))
    return _normalize_rows(Q)


def occupancy_transition_matrix(rule: Rule, counts: np.ndarray,
                                support: Optional[np.ndarray] = None
                                ) -> np.ndarray:
    """Build the per-class outcome matrix ``Q`` of one round of ``rule``.

    Built-in rules get the band of :func:`occupancy_outcome_profiles`;
    rules outside the built-in families may provide an
    ``occupancy_kernel(support, counts)`` method.  ``support`` is the
    bin-value array matching ``counts`` (the built-in kernels are label-free
    and ignore it; value-aware hooks receive whatever the caller tracked, or
    ``None`` when no labels exist at the call site).
    """
    counts = np.asarray(counts, dtype=np.int64)
    hook = getattr(rule, "occupancy_kernel", None)
    if callable(hook):
        _check_counts(counts)
        return _normalize_rows(np.asarray(hook(support, counts),
                                          dtype=np.float64))
    return _builtin_band(rule, counts)


def occupancy_transition_matrix_batch(rule: Rule, counts: np.ndarray,
                                      support: Optional[np.ndarray] = None
                                      ) -> np.ndarray:
    """Stacked ``(R, m, m)`` outcome tensor: one transition matrix per run.

    The built-in kernels are genuinely vectorized over the run axis (one pass
    of batched CDFs / binomial tails for the whole batch); rules providing a
    custom ``occupancy_kernel`` hook are offered the whole ``(R, m)`` batch
    first (hooks broadcasting over leading batch dims run vectorized), and
    only drop to a per-run loop when the batched call fails or returns the
    wrong shape.  ``support`` is forwarded to the hook exactly as in
    :func:`occupancy_transition_matrix`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError(f"batched counts must be (R, m), got shape {counts.shape}")
    hook = getattr(rule, "occupancy_kernel", None)
    if callable(hook):
        _check_counts(counts)
        R, m = counts.shape
        try:
            batched = np.asarray(hook(support, counts), dtype=np.float64)
        except Exception:
            batched = None
        if batched is not None and batched.shape == (R, m, m):
            return _normalize_rows(batched)
        return np.stack([occupancy_transition_matrix(rule, row, support)
                         for row in counts])
    return _builtin_band(rule, counts)


# ---------------------------------------------------------------------- #
# the round and the run
# ---------------------------------------------------------------------- #
def _banded_profiles_if_fast(rule: Rule, counts: np.ndarray
                             ) -> Optional[tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]]:
    """Profiles for the O(m)-draw banded scatter, when it is the right path.

    Only the compiled backend implements the pooled hazard walk natively;
    the numpy backend keeps the historical dense ``Generator.multinomial``
    bit stream, so banded routing is gated on the resolved backend (not
    just rule structure).
    """
    if not _mnk.use_compiled():
        return None
    return occupancy_outcome_profiles(rule, counts)


def occupancy_round(counts: np.ndarray, rule: Rule,
                    rng: np.random.Generator, *,
                    support: Optional[np.ndarray] = None) -> np.ndarray:
    """Advance one run one synchronous round in count space (exact, O(m²)).

    The ``R = 1`` slice of :func:`occupancy_round_batch`: each value class
    scatters its holders over the classes with one multinomial draw from
    its outcome distribution, and the new occupancy is the column sum.
    Population size is conserved exactly.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return occupancy_round_batch(counts[None, :], rule, rng,
                                 support=support)[0]


def occupancy_round_split(counts: np.ndarray, victim_counts: np.ndarray,
                          rule: Rule, rng: np.random.Generator, *,
                          support: Optional[np.ndarray] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """One run's round with its victims scattered separately (exact).

    The ``R = 1`` slice of :func:`occupancy_round_batch_split`; returns
    ``(new_counts, new_victim_counts)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    victim_counts = np.asarray(victim_counts, dtype=np.int64)
    new, new_victims = occupancy_round_batch_split(
        counts[None, :], victim_counts[None, :], rule, rng, support=support)
    return new[0], new_victims[0]


def occupancy_round_batch(counts: np.ndarray, rule: Rule,
                          rng: np.random.Generator, *,
                          support: Optional[np.ndarray] = None) -> np.ndarray:
    """Advance ``R`` independent runs one synchronous round (exact, O(R·m²)).

    ``counts`` has shape ``(R, m)``: run ``r`` scatters each of its value
    classes with one multinomial draw from that run's outcome distribution —
    all ``R·m`` multinomials are drawn in a single seam call, so the whole
    round is a handful of NumPy passes regardless of R.  Each run's
    population size is conserved exactly.  On the compiled backend, built-in
    rules take the banded O(m)-draw path and never build the m×m matrix.
    """
    counts = np.asarray(counts, dtype=np.int64)
    prof = _banded_profiles_if_fast(rule, counts)
    if prof is not None:
        lo, hi, diag = prof
        return _mnk.sample_scatter_banded(counts, lo, hi, diag, rng)
    Q = occupancy_transition_matrix_batch(rule, counts, support)
    return _mnk.scatter_column_sums_batch(counts, Q, rng)


def occupancy_round_batch_split(counts: np.ndarray, victim_counts: np.ndarray,
                                rule: Rule, rng: np.random.Generator, *,
                                support: Optional[np.ndarray] = None
                                ) -> tuple[np.ndarray, np.ndarray]:
    """One round with each run's victim subpopulation scattered separately.

    ``victim_counts`` is the ``(R, m)`` occupancy of a distinguished
    subpopulation (an identity-tracking adversary's victims) with
    ``victim_counts ≤ counts`` bin-wise.  Conditionally on the pre-round
    occupancy all n per-process updates are independent draws from the
    per-class outcome distribution, so scattering civilians
    (``counts − victim_counts``) and victims as two independent multinomial
    programs — both through the outcome law of the *total* counts — has
    exactly the same joint law as one combined scatter plus tracking which
    holders were victims.  Rows whose run has no victim tracking carry a
    zero victim row (a no-op scatter), so mixed batches stay one program.

    Returns ``(new_counts, new_victim_counts)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    victim_counts = np.asarray(victim_counts, dtype=np.int64)
    civilians = counts - victim_counts
    if np.any(victim_counts < 0) or np.any(civilians < 0):
        raise ValueError(
            "victim occupancy out of sync with the population counts "
            "(victim_counts must satisfy 0 <= victim_counts <= counts)"
        )
    prof = _banded_profiles_if_fast(rule, counts)
    if prof is not None:
        lo, hi, diag = prof
        new_civilians = _mnk.sample_scatter_banded(civilians, lo, hi, diag, rng)
        new_victims = _mnk.sample_scatter_banded(victim_counts, lo, hi, diag,
                                                 rng)
        return new_civilians + new_victims, new_victims
    Q = occupancy_transition_matrix_batch(rule, counts, support)
    new_civilians = _mnk.scatter_column_sums_batch(civilians, Q, rng)
    new_victims = _mnk.scatter_column_sums_batch(victim_counts, Q, rng)
    return new_civilians + new_victims, new_victims


def _as_occupancy(initial: Union[Configuration, OccupancyState, np.ndarray, Sequence[int]]
                  ) -> OccupancyState:
    if isinstance(initial, OccupancyState):
        return initial
    if isinstance(initial, Configuration):
        return OccupancyState.from_configuration(initial)
    return OccupancyState.from_values(np.asarray(initial))


def simulate_occupancy(
    initial: Union[Configuration, OccupancyState, np.ndarray, Sequence[int]],
    rule: Rule | None = None,
    adversary: Adversary | None = None,
    *,
    seed: Optional[int | np.random.Generator] = None,
    max_rounds: Optional[int] = None,
    criterion: Optional[AlmostStableCriterion] = None,
    record: RecordLevel = RecordLevel.METRICS,
    run_to_horizon: bool = False,
    admissible_values: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Simulate one run entirely in occupancy space.

    Drop-in companion to :func:`repro.engine.vectorized.simulate`: same
    parameters, the same horizon
    (:func:`~repro.core.consensus.default_max_rounds`), default criterion
    (:meth:`~repro.core.consensus.AlmostStableCriterion.for_budget`) and
    stop rule, and the same :class:`SimulationResult` shape, but per-round
    cost O(m²) independent of n.  The produced run is
    *equal in distribution* to a vectorized run (not sample-path identical
    for a shared seed).  The rounds run through the same count-space loop as
    :func:`repro.engine.batch.run_batch_fused_occupancy`, at ``R = 1`` on
    this run's own generator.

    Notes
    -----
    * ``result.initial`` / ``result.final`` are expanded to real
      :class:`Configuration` objects iff ``n <= 1_000_000``
      (``MATERIALIZE_LIMIT_DEFAULT``); above, they are
      :class:`OccupancyState` objects, which duck-type every query the
      analysis layer uses (``n``, ``num_values``, ``support``, ``loads``,
      ``agreement_fraction()``, ...).  Convert either way with
      :meth:`OccupancyState.from_configuration` or
      :meth:`OccupancyState.to_configuration`.
    * ``record=RecordLevel.FULL`` stores expanded configurations and is
      refused for n > 100_000.
    * The adversary must support count edits
      (:attr:`~repro.adversary.base.Adversary.supports_counts`).  Every
      shipped strategy does — the identity-tracking ones (sticky, hiding)
      through an exact victim-*occupancy* form: the engine splits each
      round's scatter into independent civilian and victim draws
      (:func:`occupancy_round_batch_split`) and keeps the victims' new
      occupancy as the strategy's state (a custom victim tracker receives
      it through
      :meth:`~repro.adversary.base.Adversary.observe_victim_scatter`).
      Only custom adversaries without a count-space form are rejected.
    """
    from repro.engine.batch import _occupancy_loop

    state = _as_occupancy(initial)
    n = state.n
    if n == 0:
        raise ValueError("cannot simulate an empty population")
    rule = rule or MedianRule()
    adversary = adversary or NullAdversary()
    if criterion is None:
        criterion = AlmostStableCriterion.for_budget(adversary.budget)
    rng = make_rng(seed)
    if record is RecordLevel.FULL and n > _FULL_RECORD_LIMIT:
        raise ValueError(
            f"RecordLevel.FULL would materialize {n} values per round; "
            f"use METRICS (O(1) per round) above n={_FULL_RECORD_LIMIT}"
        )

    nonzero_support = state.support[state.counts > 0]
    admissible = np.unique(np.asarray(
        nonzero_support if admissible_values is None else admissible_values,
        dtype=np.int64))
    # fixed support for the whole run: current values ∪ adversary's palette,
    # so count edits can re-introduce extinct admissible values
    state = state.with_support(np.union1d(state.support, admissible))

    recorder = TrajectoryRecorder(level=record)

    def _record(t: int, support: np.ndarray, counts: np.ndarray) -> None:
        # only FULL expands the (sorted) configuration
        values = np.repeat(support, counts[0]) if record is RecordLevel.FULL else None
        recorder.record(values, t, (support, counts[0]))

    out = _occupancy_loop(
        state.counts[None, :], state.support, rule, [adversary], [admissible],
        rng, max_rounds, criterion=criterion, run_to_horizon=run_to_horizon,
        observe=None if record is RecordLevel.NONE else _record)

    final_state = OccupancyState(support=out.support, counts=out.counts[0])
    consensus_status = ConsensusStatus(reached=False, round=None, value=None)
    if out.consensus_round[0] >= 0:
        consensus_status = ConsensusStatus(
            reached=True, round=int(out.consensus_round[0]),
            value=int(out.consensus_value[0]))
    almost_status = ConsensusStatus(reached=False, round=None, value=None)
    if out.stable_round[0] >= 0:
        almost_status = ConsensusStatus(reached=True,
                                        round=int(out.stable_round[0]),
                                        value=final_state.majority_value())

    if n <= MATERIALIZE_LIMIT_DEFAULT:
        if isinstance(initial, Configuration):
            result_initial = initial  # keep the caller's ball order
        else:
            result_initial = _as_occupancy(initial).to_configuration(limit=max(n, 1))
        result_final = final_state.to_configuration(limit=max(n, 1))
    else:
        result_initial = _as_occupancy(initial)
        result_final = final_state.compacted()

    return SimulationResult(
        initial=result_initial,
        final=result_final,
        rounds_executed=out.rounds_executed,
        consensus=consensus_status,
        almost_stable=almost_status,
        trajectory=recorder.finish(),
        rule_name=rule.name,
        adversary_name=type(adversary).__name__,
        criterion=criterion,
        meta={
            "engine": "occupancy",
            "num_bins": int(state.support.shape[0]),
            "adversary_budget": adversary.budget,
            "horizon": out.horizon,
            "budget_ledger_total": adversary.ledger.total,
            "budget_ledger_ok": adversary.ledger.verify(),
        },
    )
