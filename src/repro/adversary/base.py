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

The count-space round loop steps the adversaries of all its runs at once:
one :meth:`Adversary.corrupt_counts` call per round and timing takes the
``(L, m)`` occupancy block of the runs it steps, each row enforced against
its own run's palette and budget and recorded in its own run's ledger.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


class _RowMoves(NamedTuple):
    """Count edits for a block of rows: move ``amounts[i]`` processes of row
    ``rows[i]`` from value ``src[i]`` to value ``dst[i]``.

    Rows ascend, and each row's moves keep the order they were proposed in.
    """

    rows: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    amounts: np.ndarray

    @classmethod
    def of(cls, proposal: CountCorruption) -> "_RowMoves":
        """One run's proposal as the moves of row 0."""
        return cls(np.zeros(proposal.amounts.shape[0], dtype=np.intp),
                   proposal.src_values, proposal.dst_values, proposal.amounts)

    @classmethod
    def concat(cls, parts: Sequence["_RowMoves"]) -> "_RowMoves":
        if not parts:
            return cls.of(CountCorruption.empty())
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def proposal(self) -> CountCorruption:
        """The moves that move something, as one run's proposal."""
        go = self.amounts > 0
        return CountCorruption(src_values=self.src[go], dst_values=self.dst[go],
                               amounts=self.amounts[go])


def _locate(ordered: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each of ``values`` sits in the non-empty sorted ``ordered``, and
    whether it is there."""
    at = np.minimum(ordered.searchsorted(values), ordered.shape[0] - 1)
    return at, ordered[at] == values


#: "no value" in an int64 per-run state array (an unset memory or keyword)
_NO_VALUE = np.iinfo(np.int64).min

#: the row indices of a one-row block
_ROW0 = np.zeros(1, dtype=np.intp)


class _Palette(NamedTuple):
    """Each row's admissible values: the entries of ``values`` that ``mask[r]`` selects.

    A single adversary's palette is one all-true row over its own sorted
    values; the count-space batch's is one row per run over the loop's
    support, which holds every run's palette.
    """

    values: np.ndarray  #: (P,) sorted distinct values
    mask: np.ndarray    #: (L, P) which of them each row may write

    @classmethod
    def of(cls, admissible_values: np.ndarray) -> "_Palette":
        """One all-true row over sorted distinct ``int64`` values (kept as given if so)."""
        values = np.asarray(admissible_values, dtype=np.int64)
        if values.ndim != 1 or not (values[1:] > values[:-1]).all():
            values = np.unique(values)
        return cls(values, np.ones((1, values.shape[0]), dtype=bool))

    def lo(self) -> np.ndarray:
        """Each row's smallest admissible value."""
        return self.values[self.mask.argmax(axis=1)]

    def hi(self) -> np.ndarray:
        """Each row's largest admissible value."""
        return self.values[self.values.shape[0] - 1 - self.mask[:, ::-1].argmax(axis=1)]

    def holds(self, values: np.ndarray) -> np.ndarray:
        """Whether ``values[i]`` is admissible in row ``i``."""
        if self.values.shape[0] == 0:
            return np.zeros(values.shape[0], dtype=bool)
        at, there = _locate(self.values, values)
        return there & self.mask[np.arange(values.shape[0]), at]

    def take(self, rows: Sequence[int]) -> "_Palette":
        return _Palette(self.values, self.mask[rows])


def _capped_cumsum(amounts: np.ndarray, groups: np.ndarray,
                   caps: np.ndarray) -> np.ndarray:
    """What each entry keeps when the entries of a group share one cap.

    A group is a run of equal adjacent ``groups``; its entries take their
    ``amounts`` in order until the group's running total reaches its cap
    (``caps`` holds it at every entry of the group).
    """
    fresh = groups[1:] != groups[:-1]
    if fresh.all():
        return np.minimum(amounts, caps)
    first = np.concatenate(([True], fresh))
    before = np.cumsum(amounts) - amounts        # running total before each entry
    before -= before[first][np.cumsum(first) - 1]
    return np.minimum(before + amounts, caps) - np.minimum(before, caps)


def _enforce_rows(support: np.ndarray, block: np.ndarray, moves: _RowMoves,
                  budgets: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Apply ``moves`` to the C-contiguous ``(L, m)`` counts ``block`` in place.

    Per row, moves out of or into values without a bin, or into a bin the
    row may not write (``allowed``), are dropped.  A move rewrites only
    processes that held its source value when the call began and that no
    earlier move rewrote (as :meth:`Adversary.corrupt` keeps each process's
    first write), so no bin goes negative; the moves are then clipped to the
    row's budget in proposal order.  Returns how many each row rewrote.
    """
    L, m = block.shape
    k = moves.rows.shape[0]
    at, there = _locate(support, np.concatenate((moves.src, moves.dst)))
    rows, amounts, base = moves.rows, moves.amounts, moves.rows * m
    cells, into = base + at[:k], base + at[k:]     # flat (row, bin) cells of the block
    keep = there[:k] & there[k:] & (amounts > 0) & allowed.take(into)
    if not keep.all():
        rows, cells, into, amounts = rows[keep], cells[keep], into[keep], amounts[keep]
    if rows.shape[0] == 0:
        return np.zeros(L, dtype=np.int64)
    # moves sharing a source bin take its holders in proposal order
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    taken = np.empty_like(amounts)
    taken[order] = _capped_cumsum(amounts[order], ranked, block.take(ranked))
    moved = _capped_cumsum(taken, rows, budgets[rows])
    flat = block.reshape(-1)                       # a view: corrupt_counts' own array
    np.subtract.at(flat, cells, moved)
    np.add.at(flat, into, moved)
    return np.bincount(rows, weights=moved, minlength=L).astype(np.int64)


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
    #: whether the count-space extension points are a shipped row form (see
    #: ``_count_rows``) that this class has not replaced
    _row_form = False
    #: whether the row form tracks a victim occupancy (sticky, hiding)
    _tracks_victims = False

    def __init__(self, budget: int,
                 timing: AdversaryTiming = AdversaryTiming.BEFORE_SAMPLING) -> None:
        if budget < 0:
            raise ValueError("adversary budget must be non-negative")
        self.budget = int(budget)
        self.timing = timing
        Adversary.reset(self)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a strategy opts in to the round's census by declaring it in propose
        cls._propose_takes_census = "census" in inspect.signature(cls.propose).parameters
        # a class keeps the row form it inherits (``_count_rows``) unless it
        # overrides a count-space extension point that form realizes
        mro = cls.__mro__
        owner = next((i for i, k in enumerate(mro) if "_count_rows" in vars(k)), None)
        cls._row_form = owner is not None and not any(
            name in vars(k) for k in mro[:owner]
            for name in ("propose_counts", "victim_counts", "observe_victim_scatter"))

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
        admissible = self._palette_of(admissible_values).values
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
            keep = (idx >= 0) & (idx < values.shape[0]) & _locate(admissible, val)[1]
            idx, val = idx[keep], val[keep]
            ranked = np.sort(idx)
            fresh = ranked[1:] != ranked[:-1]
            if not fresh.all():
                # de-duplicate process indices, keeping the first write for each
                first = np.argsort(idx, kind="stable")[np.concatenate(([True], fresh))]
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
        applied to any expansion of the counts.  The shipped strategies
        implement theirs through a private row form that decides for a whole
        block of runs at once (balancing, reviving, switching, random and
        targeted-median from one move each, realized in both spaces; sticky,
        and hiding as its paper name, by tracking the *occupancy* of its
        victim set — see :meth:`victim_counts` / :meth:`observe_victim_scatter`).
        A custom strategy that overrides this method is called once per run
        and round, in run order, inside the count-space loop's one
        :meth:`corrupt_counts` call per round; ``admissible_values`` is then
        its run's sorted palette.  Custom identity-tracking adversaries
        without such a form keep the default, which returns ``None`` so the
        occupancy engine can fail fast with a clear error.
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

        The occupancy-space twin of :meth:`corrupt`.  Moves out of absent
        bins or to inadmissible values are dropped; a move rewrites only
        processes that held its source value when the call began and that no
        earlier move rewrote, so no bin goes negative; the moves are clipped
        to the per-round budget in proposal order; and the number of
        processes actually rewritten is recorded in the same
        :class:`BudgetLedger`.  Returns a **new** counts array; the input is
        never mutated.

        The count-space round loop makes one such call per round and timing
        for all its runs, on a private batch of their adversaries with the
        ``(L, m)`` block of the runs it steps: each row is enforced as above
        against its own run's palette and budget and recorded in its own
        run's ledger.  A direct call on one adversary is the one-row case.
        """
        support = np.asarray(support, dtype=np.int64)
        out = np.array(counts, dtype=np.int64)
        block = out.reshape(-1, support.shape[0])
        budgets, palette, allowed, go = self._count_setup(support, admissible_values)
        spent = np.zeros(block.shape[0], dtype=np.int64)
        if go.shape[0]:
            moves = self._propose_rows(support, block, go, round_index, palette, rng)
            spent = _enforce_rows(support, block, moves, budgets, allowed)
        self._record_rows(round_index, spent)
        return out

    # ------------------------------------------------------------------ #
    # the row form behind corrupt_counts (private)
    # ------------------------------------------------------------------ #
    def _count_setup(self, support: np.ndarray, admissible_values: np.ndarray
                     ) -> Tuple[np.ndarray, _Palette, np.ndarray, np.ndarray]:
        """The rows' budgets, palettes, bins they may write and acting rows."""
        palette = self._palette_of(admissible_values)
        go = _ROW0 if self.budget > 0 and palette.values.shape[0] else _ROW0[:0]
        return self._row()["budget"], palette, np.isin(support, palette.values)[None], go

    def _propose_rows(self, support: np.ndarray, block: np.ndarray, go: np.ndarray,
                      round_index: int, palette: _Palette,
                      rng: np.random.Generator) -> _RowMoves:
        """The moves of rows ``go`` of ``block``: here its one row, this run's."""
        if self._row_form:
            return self._row_step(support, block, round_index, palette, rng)
        proposal = self.propose_counts(support, block[0], round_index,
                                       palette.values[palette.mask[0]], rng)
        if proposal is None:
            raise NotImplementedError(
                f"{type(self).__name__} tracks process identities and has no "
                "occupancy-space (count-edit) form; use the vectorized engine"
            )
        return _RowMoves.of(proposal)

    def _record_rows(self, round_index: int, spent: np.ndarray) -> None:
        self.ledger.record(round_index, int(spent[0]))

    def _row_step(self, support: np.ndarray, counts: np.ndarray, round_index: int,
                  palette: _Palette, rng: np.random.Generator) -> _RowMoves:
        """The row form (``_count_rows``) on this adversary's own state, as one row."""
        state = self._state_of([self], support)
        moves = self._count_rows(state, _ROW0, support, counts,  # type: ignore[attr-defined]
                                 round_index, palette, rng)
        self._restore(state, 0, support)
        return moves

    def _palette_of(self, admissible_values: np.ndarray) -> _Palette:
        """The palette, normalised once per array the run passes (the engines
        pass one); its own sorted values, which :meth:`propose` gets, count too."""
        bound = self._bound
        if bound is None or (admissible_values is not bound[0]
                             and admissible_values is not bound[1].values):
            bound = self._bound = (admissible_values, _Palette.of(admissible_values))
        return bound[1]

    def _row(self) -> Dict[str, np.ndarray]:
        """This run's strategy state, one row of the row form from its first call."""
        if self._state is None:
            self._state = self._fresh_row()
        return self._state

    def _fresh_row(self) -> Dict[str, np.ndarray]:
        """A new run's one-row state: the budget, plus what a strategy adds."""
        return {"budget": np.array([self.budget], dtype=np.int64)}

    @classmethod
    def _state_of(cls, adversaries: Sequence["Adversary"],
                  support: Optional[np.ndarray]) -> Dict[str, np.ndarray]:
        """The per-run state of ``adversaries`` (all of this class), stacked in arrays."""
        rows = [adv._row() for adv in adversaries]
        return {key: np.concatenate([row[key] for row in rows]) for key in rows[0]}

    def _restore(self, state: Dict[str, np.ndarray], k: int,
                 support: Optional[np.ndarray]) -> None:
        """Take back this run's state from row ``k`` of a stacked ``state``."""
        self._state = {key: state[key][k:k + 1].copy() for key in self._row()}

    def reset(self) -> None:
        """Clear per-run internal state (ledger, strategy memory, bound palette)."""
        self.ledger = BudgetLedger(budget=self.budget)
        self._state: Optional[Dict[str, np.ndarray]] = None
        self._bound: Optional[Tuple[np.ndarray, _Palette]] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(budget={self.budget}, timing={self.timing.value})"


class NullAdversary(Adversary):
    """An adversary that never corrupts anything (the no-adversary baseline)."""

    def __init__(self) -> None:
        super().__init__(budget=0)

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        return Corruption.empty()


class _CountBatch(Adversary):
    """Every run's adversary in one count-space round loop, stepped as rows.

    Private to :func:`repro.engine.batch._occupancy_loop`, which builds it
    after resetting the adversaries.  Each round and timing the loop names the
    runs it steps (:meth:`select`) and hands their ``(L, m)`` block of counts
    to one :meth:`Adversary.corrupt_counts` call, which enforces every row
    against its own run's palette and budget and records each row in its own
    run's ledger.

    When every stepped run (budget > 0) has the same class and that class
    keeps its row form, the strategy decides for all rows at once, over the
    runs' state stacked in arrays: budgets (R,), balancing's runner-up (R,),
    the sticky victim occupancy (R, m), ...  Otherwise each run proposes
    through its own adversary, in run order, as a direct call would.
    :meth:`write_back` leaves each run's state in its adversary.
    """

    def __init__(self, adversaries: Sequence[Adversary],
                 admissibles: Sequence[np.ndarray], support: np.ndarray) -> None:
        super().__init__(budget=0)
        self._adversaries, self._support = adversaries, support
        self._budgets = np.array([adv.budget for adv in adversaries], dtype=np.int64)
        masks: Dict[int, np.ndarray] = {}   # runs usually share one palette
        for p in admissibles:
            if id(p) not in masks:
                masks[id(p)] = np.isin(support, p)
        self._palettes = np.stack([masks[id(p)] for p in admissibles])
        self._stepped = np.flatnonzero(self._budgets > 0)
        kinds = {type(adversaries[r]) for r in self._stepped}
        kind = kinds.pop() if len(kinds) == 1 else None
        self._kind = kind if kind is not None and kind._row_form else None
        self._slot = np.full(len(adversaries), -1, dtype=np.intp)
        self._slot[self._stepped] = np.arange(self._stepped.shape[0])
        self._stack = None if self._kind is None else self._kind._state_of(
            [adversaries[r] for r in self._stepped], support)
        self._runs: Optional[np.ndarray] = None
        self._tracked: List[Tuple[int, int]] = []

    def propose(self, values: np.ndarray, round_index: int,
                admissible_values: np.ndarray, rng: np.random.Generator) -> Corruption:
        raise NotImplementedError("a count-space batch has no value-space form")

    def select(self, runs: np.ndarray) -> np.ndarray:
        """Step ``runs`` on the next call; returns their palettes, its
        ``admissible_values``.  Their setup is made once per ``runs`` array."""
        if runs is not self._runs:
            budgets, mask = self._budgets[runs], self._palettes[runs]
            go = np.flatnonzero((budgets > 0) & mask.any(axis=1))
            self._runs, self._setup = runs, (budgets, _Palette(self._support, mask), mask, go)
            self._slots, self._whole = self._slot[runs[go]], go.shape[0] == runs.shape[0]
        return self._setup[2]

    def _count_setup(self, support: np.ndarray, admissible_values: np.ndarray
                     ) -> Tuple[np.ndarray, _Palette, np.ndarray, np.ndarray]:
        return self._setup

    def _propose_rows(self, support: np.ndarray, block: np.ndarray, go: np.ndarray,
                      round_index: int, palette: _Palette,
                      rng: np.random.Generator) -> _RowMoves:
        if self._kind is None:
            parts = []
            for j, r in zip(go, self._runs[go]):
                moves = self._adversaries[r]._propose_rows(
                    support, block[j:j + 1], _ROW0, round_index, palette.take([j]), rng)
                parts.append(moves._replace(rows=np.full_like(moves.rows, j)))
            return _RowMoves.concat(parts)
        whole = self._whole
        moves = self._kind._count_rows(  # type: ignore[attr-defined]
            self._stack, self._slots, support, block if whole else block[go],
            round_index, palette if whole else palette.take(go), rng)
        return moves if whole else moves._replace(rows=go[moves.rows])

    def _record_rows(self, round_index: int, spent: np.ndarray) -> None:
        for r, count in zip(self._runs, spent.tolist()):
            self._adversaries[r].ledger.record(round_index, count)

    def victim_rows(self, support: np.ndarray, runs: np.ndarray) -> Optional[np.ndarray]:
        """The victim occupancy of ``runs``, one row each (zero for a run that
        tracks none), or ``None`` when none of them tracks victims yet."""
        if self._kind is not None:
            if not self._kind._tracks_victims:
                return None
            slot = self._slot[runs]
            mine = slot >= 0
            if not self._stack["chosen"][slot[mine]].any():
                return None
            block = np.zeros((runs.shape[0], support.shape[0]), dtype=np.int64)
            block[mine] = self._stack["victims"][slot[mine]]
            return block
        block, self._tracked = None, []
        for j, r in enumerate(runs):
            adv = self._adversaries[r]
            counts = adv.victim_counts(support) if adv.budget > 0 else None
            if counts is not None:
                if block is None:
                    block = np.zeros((runs.shape[0], support.shape[0]), dtype=np.int64)
                block[j] = counts
                self._tracked.append((j, r))
        return block

    def observe_victim_rows(self, support: np.ndarray, runs: np.ndarray,
                            block: np.ndarray) -> None:
        """Store where the round's scatter took the victims of ``runs``."""
        if self._kind is not None:
            slot = self._slot[runs]
            mine = slot >= 0
            self._stack["victims"][slot[mine]] = block[mine]
            return
        for j, r in self._tracked:
            self._adversaries[r].observe_victim_scatter(support, block[j])

    def write_back(self, support: np.ndarray) -> None:
        """Leave each run's state in its adversary, where callers read it."""
        if self._kind is not None:
            support = np.array(support)
            for k, r in enumerate(self._stepped):
                self._adversaries[r]._restore(self._stack, k, support)
