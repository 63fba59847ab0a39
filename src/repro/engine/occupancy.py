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
the load pmf.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    "occupancy_round",
    "occupancy_round_batch",
    "occupancy_round_split",
    "occupancy_round_batch_split",
    "simulate_occupancy",
]

#: Full-configuration trajectory recording is refused above this n.
_FULL_RECORD_LIMIT = 100_000

#: :func:`occupancy_transition_matrix` refuses a support wider than this: its
#: m² float64 entries would take gigabytes.  Only NumPy's round builds that
#: matrix; the compiled banded walker has no width limit.  The engine choice
#: and the CLI read this width as policy too (count space wins only at m ≪ n).
MAX_SUPPORT_DEFAULT = 10_000

#: NumPy's dense round draws its ``(R, m, m)`` outcome tensor in blocks of
#: runs of at most this many float64 elements (2**24 ≈ 134 MB).
DENSE_BLOCK_ELEMS = 2 ** 24

#: The built-in families whose outcome law is a function of the load pmf
#: alone, by rule class (the median family, :class:`MedianRule` and
#: :class:`BestOfKMedianRule`, is the other one).
_PMF_FAMILIES = ((VoterRule, "voter"), (MinimumRule, "minimum"),
                 (MaximumRule, "maximum"),
                 (TwoChoicesMajorityRule, "three-majority"),
                 (TwoChoicesRule, "two-choices"))

#: Rule classes :func:`occupancy_transition_matrix` can dispatch on.
OCCUPANCY_KERNEL_RULE_TYPES = (MedianRule, BestOfKMedianRule) + tuple(
    cls for cls, _ in _PMF_FAMILIES)

#: Registry names of the rules with an occupancy-space kernel, so a cell's
#: engine can be chosen *before* work is spent.
OCCUPANCY_RULES = frozenset(
    name for name, cls in RULE_REGISTRY.items()
    if issubclass(cls, OCCUPANCY_KERNEL_RULE_TYPES)
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
    return _binomial_sf_into(k, r, x, 1.0 - x, np.empty_like(x), np.empty_like(x),
                             [math.comb(k, j) for j in range(k + 1)])


def _binomial_sf_into(k: int, r: int, x: np.ndarray, omx: np.ndarray,
                      out: np.ndarray, scratch: np.ndarray,
                      coefs: Sequence[int]) -> np.ndarray:
    """:func:`binomial_sf` written into ``out``; ``omx`` is ``1 - x`` and
    ``coefs[j]`` is ``comb(k, j)``.

    The terms ``coefs[j] · x^j · omx^(k−j)`` are added to a zero sum for
    j = r..k in that order, and the sum is clipped to [0, 1].
    """
    if r <= 0:
        out.fill(1.0)
        return out
    out.fill(0.0)
    for j in range(r, k + 1):
        np.power(x, j, out=scratch)
        scratch *= coefs[j]
        scratch *= np.power(omx, k - j)
        out += scratch
    return out.clip(0.0, 1.0, out=out)


def _diff(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.diff(a, prepend=0.0, axis=-1)`` into ``out`` (``a − 0.0`` is ``a``)."""
    out[..., :1] = a[..., :1]
    np.subtract(a[..., 1:], a[..., :-1], out=out[..., 1:])
    return out


def _normalize_rows(Q: np.ndarray) -> np.ndarray:
    """Clip floating-point negatives and renormalize each row to sum to 1."""
    Q = np.clip(Q, 0.0, None)
    sums = Q.sum(axis=-1, keepdims=True)
    np.divide(Q, sums, out=Q, where=sums > 0)
    return Q


class _Recipe(NamedTuple):
    """A built-in rule's outcome law as resolved from the rule: its family
    and, for the median family, k, r = ⌊k/2⌋ and ``coefs[j] = comb(k, j)``."""

    family: str
    k: int = 0
    r: int = 0
    coefs: Tuple[int, ...] = ()


def _recipe_of(rule: Rule) -> Optional[_Recipe]:
    """The recipe of a built-in rule; ``None`` for a rule outside the
    built-in families."""
    if isinstance(rule, (MedianRule, BestOfKMedianRule)):
        k = rule.k if isinstance(rule, BestOfKMedianRule) else 2
        family = ("median-noreplace" if isinstance(rule, MedianRuleWithoutReplacement)
                  else "median")
        return _Recipe(family, k, k // 2, tuple(math.comb(k, j) for j in range(k + 1)))
    for cls, family in _PMF_FAMILIES:
        if isinstance(rule, cls):
            return _Recipe(family)
    return None


#: The arrays one profile computation writes, by name, and their dtypes.
_PROFILE_ARRAYS = {"cum": np.int64, **dict.fromkeys(
    ("cdf", "omx", "p", "s_hi", "s_lo", "term", "lo", "hi", "diag"), np.float64)}


def _fresh_arrays(shape: Tuple[int, ...]) -> Dict[str, np.ndarray]:
    return {name: np.empty(shape, dtype=dtype) for name, dtype in _PROFILE_ARRAYS.items()}


class _ProfileBuffers:
    """One count-space loop's profile arrays, kept for all its rounds.

    Each array is ``(R, m)``; a round gets its first ``L`` rows (the live
    runs).  The arrays are re-made when the bins compact (m changes).
    """

    def __init__(self, rows: int) -> None:
        self._rows = rows
        self._full: Dict[str, np.ndarray] = {}
        self._shape: Tuple[int, ...] = ()
        self._views: Dict[str, np.ndarray] = {}

    def fit(self, shape: Tuple[int, ...]) -> Dict[str, np.ndarray]:
        """The arrays, by name, cut to ``shape``."""
        if shape != self._shape:
            if shape[1:] != self._shape[1:]:
                self._full = _fresh_arrays((self._rows, shape[1]))
            self._shape = shape
            self._views = {name: full[:shape[0]] for name, full in self._full.items()}
        return self._views


def occupancy_outcome_profiles(
        rule: Rule, counts: np.ndarray, *, _program: Optional["_RoundProgram"] = None
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
    outside the built-in families.  An empty population is refused.

    A direct call returns fresh arrays.  A count-space loop passes its round
    program (``_program``): the rule's recipe was resolved once for the
    loop, and the profiles are written into the loop's buffers, valid until
    its next round.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if _program is None:
        recipe, buf = _recipe_of(rule), _fresh_arrays(counts.shape)
    else:
        recipe, buf = _program.recipe, _program.buffers.fit(counts.shape)
    cum = np.add.accumulate(counts, axis=-1, out=buf["cum"])
    n_per_row = cum[..., -1] if counts.shape[-1] else counts.sum(axis=-1)
    if not n_per_row.all():
        raise ValueError("cannot build a transition for an empty population")
    if recipe is None:
        return None
    family = recipe.family
    lo, hi, diag = buf["lo"], buf["hi"], buf["diag"]

    if family == "median-noreplace" and (n_per_row >= 3).all():
        # the ordered contact pair is uniform over distinct non-self pairs:
        # with cumulative counts C_b and D = (n−1)(n−2), both contacts are
        # ≤ b with probability C_b(C_b − 1)/D (b < a: self is above b) and
        # ≥ b with probability U_b(U_b − 1)/D, U_b = n − C_{b−1} (b > a)
        n = int(n_per_row.ravel()[0])
        if counts.ndim > 1 and (n_per_row != n).any():
            raise ValueError(
                "batched without-replacement kernel needs a uniform n")
        C, below, above, scratch = buf["cdf"], buf["s_lo"], buf["s_hi"], buf["term"]
        C[...] = cum
        D = float(n - 1) * float(n - 2)
        np.subtract(C, 1.0, out=below)
        below *= C
        below /= D
        above[..., :1] = n                       # n − C_{−1}, C_{−1} = 0
        np.subtract(n, C[..., :-1], out=above[..., 1:])
        np.subtract(above, 1.0, out=scratch)
        above *= scratch
        above /= D
        _diff(below, lo)
        # hi = −diff(above, append=0.0)
        np.subtract(above[..., 1:], above[..., :-1], out=hi[..., :-1])
        np.subtract(0.0, above[..., -1:], out=hi[..., -1:])
        np.negative(hi, out=hi)
        # diag = 1 − below_{b−1} − above_{b+1}, with zeros past either end
        diag[..., :1] = 1.0
        np.subtract(1.0, below[..., :-1], out=diag[..., 1:])
        np.subtract(diag[..., :-1], above[..., 1:], out=diag[..., :-1])
        return lo, hi, diag

    cdf = np.divide(cum, n_per_row[..., None], out=buf["cdf"])
    if family in ("median", "median-noreplace"):
        # median of own value and k samples, r = ⌊k/2⌋: the new value is
        # ≤ b iff ≥ r (b ≥ a, own value helps) or ≥ r + 1 (b < a) of the k
        # samples land at or below b — a binomial tail in the CDF F_b.
        # MedianRuleWithoutReplacement with some n < 3 lands here too: the
        # rule itself falls back to with-replacement sampling below n = 3
        k, r = recipe.k, recipe.r
        omx, s_hi, s_lo, scratch = buf["omx"], buf["s_hi"], buf["s_lo"], buf["term"]
        np.subtract(1.0, cdf, out=omx)
        _binomial_sf_into(k, r, cdf, omx, s_hi, scratch, recipe.coefs)
        _binomial_sf_into(k, r + 1, cdf, omx, s_lo, scratch, recipe.coefs)
        _diff(s_lo, lo)
        _diff(s_hi, hi)
        diag[..., :1] = s_hi[..., :1]            # s_hi − s_lo_{b−1}, s_lo_{−1} = 0
        np.subtract(s_hi[..., 1:], s_lo[..., :-1], out=diag[..., 1:])
        return lo, hi, diag

    p = _diff(cdf, buf["p"])
    if family == "voter":
        return p, p, p
    if family == "minimum":
        # adopt the sample iff it is smaller, keep own value otherwise
        hi.fill(0.0)
        diag[..., :1] = 1.0                      # 1 − F_{b−1}, F_{−1} = 0
        np.subtract(1.0, cdf[..., :-1], out=diag[..., 1:])
        return p, hi, diag
    if family == "maximum":
        lo.fill(0.0)
        return lo, p, cdf
    p2 = np.multiply(p, p, out=buf["term"])
    s2 = p2.sum(axis=-1, keepdims=True)
    if family == "three-majority":
        # 3-majority: b wins iff ≥ 2 of three samples equal it, or all three
        # differ and the tie-break picks it — q_b = p_b (1 + p_b − Σ p_c²)
        q = np.add(1.0, p, out=lo)
        q -= s2
        q *= p
        return q, q, q
    # 2-Choices: switch to b ≠ a iff both samples land on b
    np.subtract(1.0, s2, out=s2)
    return p2, p2, np.add(s2, p2, out=diag)


def occupancy_transition_matrix(rule: Rule, counts: np.ndarray) -> np.ndarray:
    """The per-class outcome matrix ``Q`` of one round of ``rule``.

    The dense band of :func:`occupancy_outcome_profiles`, rows renormalized.
    ``counts`` may carry leading batch dimensions ``(..., m)``: ``(R, m)``
    counts give the stacked ``(R, m, m)`` tensor, one matrix per run, built
    in one vectorized pass; m > :data:`MAX_SUPPORT_DEFAULT` is refused.
    """
    counts = np.asarray(counts, dtype=np.int64)
    m = counts.shape[-1]
    if m > MAX_SUPPORT_DEFAULT:
        raise ValueError(
            f"support width m={m} needs an m²={m * m:,}-entry transition matrix "
            f"({m * m * 8 / 1e9:.1f} GB); the occupancy engine targets m ≪ n — "
            "use the vectorized engine for wide supports"
        )
    profiles = occupancy_outcome_profiles(rule, counts)
    if profiles is None:
        raise TypeError(
            f"rule {rule.name!r} has no occupancy-space kernel; supported "
            f"rules are {', '.join(sorted(OCCUPANCY_RULES))}"
        )
    lo, hi, diag = profiles
    a_idx = np.arange(m)[:, None]
    b_idx = np.arange(m)[None, :]
    Q = np.where(b_idx < a_idx, lo[..., None, :],
                 np.where(b_idx > a_idx, hi[..., None, :], diag[..., None, :]))
    return _normalize_rows(Q)


# ---------------------------------------------------------------------- #
# the round and the run
# ---------------------------------------------------------------------- #
class _RoundProgram:
    """What a count-space loop resolves before its first round, for all of them.

    ``kernel`` is the multinomial backend
    (:class:`repro.engine._multinomial._BoundKernel`: resolved once, its C
    entry points bound, its own seed-state scratch), ``recipe`` the rule's
    outcome recipe (``None`` for a rule outside the built-in families) and
    ``buffers`` the ``(R, m)`` arrays the band profiles are written into.
    Each backend has one sampler: rounds take the compiled banded O(m)-draw
    walker iff the compiled backend resolved and the rule is built in, and
    otherwise NumPy's dense ``Generator.multinomial`` bit stream (which
    refuses a rule without a recipe).  A direct call of a one-round function
    builds a program of its own.
    """

    def __init__(self, rule: Rule, rows: int) -> None:
        self.kernel = _mnk._BoundKernel()
        self.recipe = _recipe_of(rule)
        self.banded = self.kernel.provider is not None and self.recipe is not None
        self.buffers = _ProfileBuffers(rows)


def occupancy_round(counts: np.ndarray, rule: Rule,
                    rng: np.random.Generator) -> np.ndarray:
    """Advance one run one synchronous round in count space (exact, O(m²)).

    The ``R = 1`` slice of :func:`occupancy_round_batch`: each value class
    scatters its holders over the classes with one multinomial draw from
    its outcome distribution, and the new occupancy is the column sum.
    Population size is conserved exactly.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return occupancy_round_batch(counts[None, :], rule, rng)[0]


def occupancy_round_split(counts: np.ndarray, victim_counts: np.ndarray,
                          rule: Rule, rng: np.random.Generator
                          ) -> tuple[np.ndarray, np.ndarray]:
    """One run's round with its victims scattered separately (exact).

    The ``R = 1`` slice of :func:`occupancy_round_batch_split`; returns
    ``(new_counts, new_victim_counts)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    victim_counts = np.asarray(victim_counts, dtype=np.int64)
    new, new_victims = occupancy_round_batch_split(
        counts[None, :], victim_counts[None, :], rule, rng)
    return new[0], new_victims[0]


def occupancy_round_batch(counts: np.ndarray, rule: Rule,
                          rng: np.random.Generator, *,
                          _program: Optional[_RoundProgram] = None) -> np.ndarray:
    """Advance ``R`` independent runs one synchronous round (exact, O(R·m²)).

    ``counts`` has shape ``(R, m)``: run ``r`` scatters each of its value
    classes with one multinomial draw from that run's outcome distribution —
    all ``R·m`` multinomials are drawn in a single seam call, so the whole
    round is a handful of NumPy passes regardless of R.  Each run's
    population size is conserved exactly.  On the compiled backend the
    round takes the banded O(m)-draw walker and never builds the m×m
    matrix; on NumPy it is the dense round of :func:`_dense_scatter`.
    ``_program`` is the calling loop's round program; without it the call
    resolves its own.
    """
    counts = np.asarray(counts, dtype=np.int64)
    program = _program or _RoundProgram(rule, counts.shape[0])
    if program.banded:
        lo, hi, diag = occupancy_outcome_profiles(rule, counts, _program=program)
        return _mnk.sample_scatter_banded(counts, lo, hi, diag, rng,
                                          _kernel=program.kernel)
    return _dense_scatter(rule, counts, [counts], rng)[0]


def occupancy_round_batch_split(counts: np.ndarray, victim_counts: np.ndarray,
                                rule: Rule, rng: np.random.Generator, *,
                                _program: Optional[_RoundProgram] = None
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
    ``_program`` is as in :func:`occupancy_round_batch`.

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
    program = _program or _RoundProgram(rule, counts.shape[0])
    if program.banded:
        kernel = program.kernel
        lo, hi, diag = occupancy_outcome_profiles(rule, counts, _program=program)
        new_civilians = _mnk.sample_scatter_banded(civilians, lo, hi, diag, rng,
                                                   _kernel=kernel)
        new_victims = _mnk.sample_scatter_banded(victim_counts, lo, hi, diag,
                                                 rng, _kernel=kernel)
        return new_civilians + new_victims, new_victims
    new_civilians, new_victims = _dense_scatter(rule, counts,
                                                [civilians, victim_counts], rng)
    return new_civilians + new_victims, new_victims


def _dense_scatter(rule: Rule, counts: np.ndarray, parts: List[np.ndarray],
                   rng: np.random.Generator) -> List[np.ndarray]:
    """NumPy's dense round: each of ``parts`` (``(R, m)`` subpopulations of
    ``counts``) scattered through the outcome tensor of ``counts``, in run
    blocks of at most :data:`DENSE_BLOCK_ELEMS`, each drawing its parts in
    order."""
    R, m = counts.shape
    block = max(1, DENSE_BLOCK_ELEMS // max(m * m, 1))
    drawn: List[List[np.ndarray]] = [[] for _ in parts]
    for s in range(0, max(R, 1), block):
        Q = occupancy_transition_matrix(rule, counts[s:s + block])
        for part, out in zip(parts, drawn):
            out.append(_mnk.scatter_column_sums_batch(part[s:s + block], Q, rng))
    return [out[0] if len(out) == 1 else np.concatenate(out) for out in drawn]


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
    * ``result.initial`` / ``result.final`` keep the input's
      representation: :class:`OccupancyState` objects for an
      :class:`OccupancyState` input, whatever ``n`` (count space stays in
      count space); real :class:`Configuration` objects for a
      :class:`Configuration` or value-array input iff ``n <= 1_000_000``
      (``MATERIALIZE_LIMIT_DEFAULT``), and :class:`OccupancyState` objects
      above.  Occupancy states duck-type every query the analysis layer
      uses (``n``, ``num_values``, ``support``, ``loads``,
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

    if isinstance(initial, OccupancyState) or n > MATERIALIZE_LIMIT_DEFAULT:
        result_initial = _as_occupancy(initial)
        result_final = final_state.compacted()
    else:
        if isinstance(initial, Configuration):
            result_initial = initial  # keep the caller's ball order
        else:
            result_initial = _as_occupancy(initial).to_configuration(limit=max(n, 1))
        result_final = final_state.to_configuration(limit=max(n, 1))

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
