"""Agent-level message-passing simulator.

This simulator executes the paper's model literally: ``n`` :class:`Process`
objects with private numberings exchange :class:`ValueRequest` /
:class:`ValueResponse` messages through a :class:`RoundScheduler` enforcing
the per-round contact cap, and an optional T-bounded adversary rewrites up to
``T`` states at the beginning of each round.

It is intentionally object-based and readable rather than fast — its role is
to validate protocol mechanics (anonymity, message budgets, drops, adversary
placement) and to cross-check the vectorized engine.  Only the round itself
(:meth:`NetworkSimulator.step`) is its own: :meth:`NetworkSimulator.run`
drives it through the round loop of :func:`repro.engine.vectorized.simulate`,
so horizon, stop rule, criterion and result are shared.  With a request cap
of ``n·k`` (nothing is ever dropped) the two simulators are equal in law,
which ``tests/test_engine_differential.py`` certifies.

For large-n statistics use :mod:`repro.engine.vectorized` instead.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.adversary.base import Adversary, AdversaryTiming, Census, NullAdversary
from repro.core.consensus import AlmostStableCriterion
from repro.core.median_rule import MedianRule
from repro.core.rules import Rule, require_uniform_contacts
from repro.core.state import Configuration
from repro.engine.rng import make_rng
from repro.engine.run import SimulationResult
from repro.engine.trajectory import RecordLevel
from repro.engine.vectorized import _value_loop
from repro.network.messages import MessageStats, ValueRequest
from repro.network.node import Process
from repro.network.scheduler import RoundScheduler
from repro.network.topology import CompleteTopology, Topology

__all__ = ["NetworkSimulator"]


class NetworkSimulator:
    """Round-based simulator of the anonymous message-passing system.

    Parameters
    ----------
    initial:
        Initial configuration (one value per process).
    rule:
        Update rule applied by every process (default: median rule).  A rule
        with its own contact law is refused
        (:func:`~repro.core.rules.require_uniform_contacts`).
    adversary:
        T-bounded adversary (default: none).
    topology:
        Contact structure (default: the paper's complete topology).
    capacity:
        Per-round request cap (default: Θ(log n), see
        :func:`repro.network.scheduler.default_capacity`).
    seed:
        Seed or generator for all the simulator's randomness.
    """

    def __init__(
        self,
        initial: Configuration | np.ndarray,
        rule: Rule | None = None,
        adversary: Adversary | None = None,
        topology: Topology | None = None,
        capacity: Optional[int] = None,
        seed: Optional[int | np.random.Generator] = None,
    ) -> None:
        cfg = initial if isinstance(initial, Configuration) else Configuration.from_values(initial)
        self.initial = cfg
        self.rule = rule or MedianRule()
        require_uniform_contacts(self.rule, "NetworkSimulator")
        self.adversary = adversary or NullAdversary()
        self.topology = topology or CompleteTopology(cfg.n)
        if self.topology.n != cfg.n:
            raise ValueError("topology size must match the configuration size")
        self.rng = make_rng(seed)
        self.scheduler = RoundScheduler(cfg.n, capacity=capacity)
        self._admissible = np.array(cfg.support, dtype=np.int64)

        # Each process gets its own child generator so its private numbering
        # and sampling are independent of the others.
        children = np.random.SeedSequence(int(self.rng.integers(0, 2**63 - 1))).spawn(cfg.n)
        self.processes: List[Process] = [
            Process(index=i, value=int(cfg.values[i]), n=cfg.n, rule=self.rule,
                    rng=np.random.default_rng(children[i]))
            for i in range(cfg.n)
        ]
        self.round_index = 0

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self.initial.n

    def values(self) -> np.ndarray:
        """Current value vector (a fresh array)."""
        return np.array([p.value for p in self.processes], dtype=np.int64)

    @property
    def message_stats(self) -> MessageStats:
        return self.scheduler.stats

    # ------------------------------------------------------------------ #
    def step(self) -> np.ndarray:
        """Execute one synchronous round; returns the new value vector."""
        return self._round(None)

    def _round(self, census: Optional[Census]) -> np.ndarray:
        """One round; ``census`` is the current values' histogram, if known."""
        self.round_index += 1
        t = self.round_index

        # 1. adversary at the beginning of the round (Section 1.1 placement)
        if self.adversary.budget > 0 and self.adversary.timing is AdversaryTiming.BEFORE_SAMPLING:
            corrupted = self.adversary.corrupt(self.values(), t, self._admissible, self.rng,
                                               census=census)
            for proc, val in zip(self.processes, corrupted):
                if proc.value != val:
                    proc.corrupt(int(val))

        # 2. every process draws contacts and issues requests
        requests: List[ValueRequest] = []
        for proc in self.processes:
            if isinstance(self.topology, CompleteTopology):
                contacts = proc.choose_contacts()
            else:
                contacts = self.topology.sample_neighbors(
                    proc.index, self.rule.num_choices, proc._rng)
                proc._expected_responses = int(contacts.shape[0])
                proc._pending_values = []
            for dest in contacts:
                requests.append(ValueRequest(sender=proc.index, destination=int(dest), round=t))

        # 3. scheduler applies the capacity cap and produces responses
        current_values = self.values()
        responses, _dropped = self.scheduler.deliver(requests, current_values, t, self.rng)

        # 4. deliver responses and update every process
        for resp in responses:
            self.processes[resp.destination].receive_value(resp.value)
        for proc in self.processes:
            proc.update()

        # 5. adversary acting after the random choices (Section 3 placement)
        if self.adversary.budget > 0 and self.adversary.timing is AdversaryTiming.AFTER_SAMPLING:
            corrupted = self.adversary.corrupt(self.values(), t, self._admissible, self.rng)
            for proc, val in zip(self.processes, corrupted):
                if proc.value != val:
                    proc.corrupt(int(val))

        return self.values()

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_rounds: Optional[int] = None,
        criterion: Optional[AlmostStableCriterion] = None,
        record: RecordLevel = RecordLevel.METRICS,
    ) -> SimulationResult:
        """Run until consensus / stability / the horizon, through ``simulate``'s loop.

        The run starts from the processes' current values.  Its horizon,
        default criterion and stop rule are :mod:`repro.core.consensus`'s
        (:func:`~repro.core.consensus.default_max_rounds`,
        :meth:`~repro.core.consensus.AlmostStableCriterion.for_budget`), and
        its result is that of :func:`repro.engine.vectorized.simulate`.
        ``meta`` adds the message counts and ``"simulator": "network"``.
        """
        result = _value_loop(
            self.initial, self.values(), lambda values, t, census: self._round(census),
            self.adversary, self.rule, self._admissible,
            max_rounds=max_rounds, criterion=criterion, record=record,
            run_to_horizon=False,
        )
        result.meta.update(messages=self.message_stats.as_dict(), simulator="network")
        return result
