"""T-bounded adversary interface.

The paper's adversarial model (Section 1.1):

    A T-bounded adversary is allowed to know the entire history of the
    protocol.  At the beginning of each round, it may decide to change the
    state of up to T many of the processes in an arbitrary way subject to the
    constraint that it can only change the value of a process to one out of
    the initial set of values {v_1, ..., v_n}.

Adversaries in this library receive the full current value vector (they are
adaptive and omniscient about the state and history), the round number, the
set of admissible values, and a per-round budget ``T``; they return a set of
(process index, new value) writes.  :class:`Adversary.corrupt` enforces the
budget and the value-set constraint regardless of what the strategy proposes,
so no strategy can exceed the model even by accident; every application is
also recorded in a :class:`~repro.adversary.budget.BudgetLedger` for auditing
by tests and experiments.

Within a run the value-space engines take one *census* per round — the
``(support, counts)`` histogram of the value vector, exactly
``np.unique(values, return_counts=True)`` — and hand it to an adversary
acting at the beginning of the round; a strategy opts in by declaring a
``census`` keyword in its :meth:`Adversary.propose` (see there).

Section 3 additionally considers an adversary that acts *after* the random
choices of the round (it "is allowed to change the choices of at most sqrt(n)
balls").  Both placements are supported through the ``timing`` attribute and
the simulators honour it; an ablation in ``tests/test_theorems.py``
compares them.
"""

from __future__ import annotations

import abc
import enum
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.budget import BudgetLedger
from repro.core.state import Configuration

__all__ = ["AdversaryTiming", "Census", "Corruption", "CountCorruption", "Adversary",
           "NullAdversary"]

#: A value vector's histogram ``(support, counts)``: sorted distinct values and
#: their loads, exactly ``np.unique(values, return_counts=True)``.
Census = Tuple[np.ndarray, np.ndarray]


class AdversaryTiming(enum.Enum):
    """When in the round the adversary rewrites states.

    ``BEFORE_SAMPLING`` is the model of Section 1.1 (state changed at the
    beginning of the round, before processes draw their contacts);
    ``AFTER_SAMPLING`` is the Section 3 variant (the adversary reacts to the
    drawn choices).  Against an omniscient adversary the two are equally
    strong for the strategies shipped here, which an ablation in
    ``tests/test_theorems.py`` checks empirically.
    """

    BEFORE_SAMPLING = "before-sampling"
    AFTER_SAMPLING = "after-sampling"


@dataclass(frozen=True)
class Corruption:
    """A batch of adversarial writes for one round."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        val = np.asarray(self.values, dtype=np.int64).ravel()
        if idx.shape[0] != val.shape[0]:
            raise ValueError("indices and values must have equal length")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @classmethod
    def empty(cls) -> "Corruption":
        return cls(indices=np.empty(0, dtype=np.int64), values=np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class CountCorruption:
    """A batch of adversarial *count edits* for one round of the occupancy engine.

    Each entry moves ``amounts[i]`` processes from value ``src_values[i]`` to
    value ``dst_values[i]``.  This is the occupancy-space equivalent of a
    :class:`Corruption`: rewriting a process's value is exactly a unit of mass
    moved between two bins, so a T-bounded adversary is one whose amounts sum
    to at most T per round.
    """

    src_values: np.ndarray
    dst_values: np.ndarray
    amounts: np.ndarray

    def __post_init__(self) -> None:
        src = np.asarray(self.src_values, dtype=np.int64).ravel()
        dst = np.asarray(self.dst_values, dtype=np.int64).ravel()
        amt = np.asarray(self.amounts, dtype=np.int64).ravel()
        if not (src.shape[0] == dst.shape[0] == amt.shape[0]):
            raise ValueError("src_values, dst_values and amounts must have equal length")
        object.__setattr__(self, "src_values", src)
        object.__setattr__(self, "dst_values", dst)
        object.__setattr__(self, "amounts", amt)

    @property
    def total(self) -> int:
        return int(self.amounts.sum()) if self.amounts.size else 0

    @classmethod
    def empty(cls) -> "CountCorruption":
        z = np.empty(0, dtype=np.int64)
        return cls(src_values=z, dst_values=z, amounts=z)


def _sorted_palette(admissible_values: np.ndarray) -> np.ndarray:
    """The palette as sorted distinct ``int64`` values.

    A palette already in that form (what the engines pass) is used as is
    after an O(m) check; anything else is normalised with ``np.unique``.
    """
    palette = np.asarray(admissible_values, dtype=np.int64)
    if palette.ndim == 1 and (palette[1:] > palette[:-1]).all():
        return palette
    return np.unique(palette)


def _in_palette(values: np.ndarray, palette: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in a non-empty sorted ``palette``."""
    return palette.take(palette.searchsorted(values), mode="clip") == values


class Adversary(abc.ABC):
    """Base class for T-bounded adversaries.

    Parameters
    ----------
    budget:
        Maximum number of processes the adversary may rewrite per round
        (the paper's ``T``).  ``0`` disables the adversary.
    timing:
        Whether the corruption happens before or after the round's sampling
        step (see :class:`AdversaryTiming`).
    """

    _propose_takes_census = False

    def __init__(self, budget: int,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        if budget < 0:
            raise ValueError("adversary budget must be non-negative")
        self.budget = int(budget)
        self.timing = timing
        self.ledger = BudgetLedger(budget=self.budget)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a strategy opts in to the round's census by declaring it in propose
        cls._propose_takes_census = "census" in inspect.signature(cls.propose).parameters

    # ------------------------------------------------------------------ #
    # strategy interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def propose(
        self,
        values: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
    ) -> Corruption:
        """Propose this round's writes.

        Implementations may return more writes than the budget allows or
        values outside the admissible set; :meth:`corrupt` clips and filters
        the proposal so the T-bounded model is never violated.

        A strategy that reads the configuration's histogram can opt in to the
        engine's: declare an optional ``census=None`` keyword here.
        :meth:`corrupt` then passes the census it was given —
        ``(support, counts)``, exactly ``np.unique(values,
        return_counts=True)`` — or ``None``, in which case the strategy
        computes its own.  The value-space engines supply one only to
        adversaries acting before sampling; strategies with the four
        arguments above are called exactly as before.
        """

    # ------------------------------------------------------------------ #
    # enforcement wrapper — the only entry point simulators call
    # ------------------------------------------------------------------ #
    def corrupt(
        self,
        values: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
        census: Optional[Census] = None,
    ) -> np.ndarray:
        """Apply the (budget- and value-constrained) corruption for one round.

        ``census``, when given, is the histogram of ``values`` (see
        :data:`Census`); it reaches :meth:`propose` only if the strategy
        declares it.  Returns a **new** value vector; the input is never
        mutated.
        """
        values = np.asarray(values, dtype=np.int64)
        admissible = _sorted_palette(admissible_values)
        if self.budget == 0 or admissible.shape[0] == 0:
            self.ledger.record(round_index, 0)
            return np.array(values)

        if self._propose_takes_census:
            proposal = self.propose(values, round_index, admissible, rng, census=census)
        else:
            proposal = self.propose(values, round_index, admissible, rng)
        idx = proposal.indices
        val = proposal.values

        if idx.shape[0]:
            # Drop out-of-range indices and inadmissible values, then clip to
            # the per-round budget (keeping the strategy's preferred order).
            keep = (idx >= 0) & (idx < values.shape[0]) & _in_palette(val, admissible)
            idx, val = idx[keep], val[keep]
            if idx.shape[0] > 1:
                # de-duplicate process indices, keeping the first write for each
                order = np.argsort(idx, kind="stable")
                ranked = idx[order]
                first = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
                first.sort()
                idx, val = idx[first], val[first]
            if idx.shape[0] > self.budget:
                idx, val = idx[: self.budget], val[: self.budget]

        out = np.array(values)
        if idx.shape[0]:
            out[idx] = val
        self.ledger.record(round_index, int(idx.shape[0]))
        return out

    # ------------------------------------------------------------------ #
    # occupancy-space (count-edit) interface
    # ------------------------------------------------------------------ #
    def propose_counts(
        self,
        support: np.ndarray,
        counts: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
    ) -> Optional[CountCorruption]:
        """Propose this round's writes as count edits over the value support.

        An override must be *distributionally equivalent* to :meth:`propose`
        applied to any expansion of the counts.  The five shipped strategies
        whose behaviour depends on the configuration only through its
        occupancy vector (balancing, reviving, switching, random,
        targeted-median) get theirs, with their ``propose``, from one move
        each realized in both spaces.  The identity-tracking strategy
        (sticky, and hiding as its paper name) overrides it by tracking the
        *occupancy* of its victim set instead of victim identities (see
        :meth:`victim_counts` / :meth:`observe_victim_scatter` — the engines
        scatter the victim subpopulation separately, which keeps the
        tracking exact).  Custom identity-tracking adversaries without such a
        form keep the default, which returns ``None`` so the occupancy engine
        can fail fast with a clear error.
        """
        return None

    # ------------------------------------------------------------------ #
    # victim-occupancy tracking (identity-tracking strategies in count space)
    # ------------------------------------------------------------------ #
    def victim_counts(self, support: np.ndarray) -> Optional[np.ndarray]:
        """Current occupancy of this adversary's victim set over ``support``.

        ``None`` (the default) means the adversary does not track a victim
        subpopulation and the engines run their plain fused scatter.  An
        adversary returning an array here asks the occupancy engines to
        scatter its victims *separately* each round
        (:func:`repro.engine.occupancy.occupancy_round_split`) and to report
        the victims' post-round occupancy back through
        :meth:`observe_victim_scatter` — conditionally on the pre-round
        occupancy all per-process updates are independent, so the two-part
        scatter is distributionally identical to the combined one and the
        victim occupancy stays exactly the law of the vectorized engine's
        victim values.
        """
        return None

    def observe_victim_scatter(self, support: np.ndarray,
                               victim_counts: np.ndarray) -> None:
        """Receive the victims' occupancy after a round's scatter (no-op here)."""

    @property
    def supports_counts(self) -> bool:
        """True iff this adversary can drive the occupancy-space engine."""
        if self.budget == 0:
            return True
        return type(self).propose_counts is not Adversary.propose_counts

    def corrupt_counts(
        self,
        support: np.ndarray,
        counts: np.ndarray,
        round_index: int,
        admissible_values: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Apply the budget- and value-constrained count edits for one round.

        The occupancy-space twin of :meth:`corrupt`: clips the proposal to the
        per-round budget, drops moves from absent bins or to inadmissible
        values, never lets a bin go negative, and records the number of
        processes actually rewritten in the same :class:`BudgetLedger`.
        Returns a **new** counts array; the input is never mutated.
        """
        support = np.asarray(support, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        admissible = _sorted_palette(admissible_values)
        out = np.array(counts)
        if self.budget == 0 or admissible.shape[0] == 0:
            self.ledger.record(round_index, 0)
            return out

        proposal = self.propose_counts(support, counts, round_index, admissible, rng)
        if proposal is None:
            raise NotImplementedError(
                f"{type(self).__name__} tracks process identities and has no "
                "occupancy-space (count-edit) form; use the vectorized engine"
            )

        spent = 0
        admitted = _in_palette(proposal.dst_values, admissible)
        for src, dst, amount, ok in zip(proposal.src_values, proposal.dst_values,
                                        proposal.amounts, admitted):
            if spent >= self.budget or amount <= 0 or not ok:
                continue
            si = int(np.searchsorted(support, src))
            di = int(np.searchsorted(support, dst))
            if si >= support.shape[0] or support[si] != src:
                continue
            if di >= support.shape[0] or support[di] != dst:
                continue
            move = int(min(amount, self.budget - spent, out[si]))
            if move <= 0:
                continue
            out[si] -= move
            out[di] += move
            spent += move
        self.ledger.record(round_index, spent)
        return out

    def reset(self) -> None:
        """Clear per-run internal state (ledger and any strategy memory)."""
        self.ledger = BudgetLedger(budget=self.budget)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(budget={self.budget}, timing={self.timing.value})"


class NullAdversary(Adversary):
    """An adversary that never corrupts anything (the no-adversary baseline)."""

    def __init__(self) -> None:
        super().__init__(budget=0)

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        return Corruption.empty()
