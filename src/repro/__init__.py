"""repro — Stabilizing Consensus with the Power of Two Choices.

A production-quality reproduction of Doerr, Goldberg, Minder, Sauerwald and
Scheideler, *Stabilizing Consensus with the Power of Two Choices* (SPAA 2011):
the median rule, the T-bounded adversary model, agent-level and vectorized
simulators, the paper's analytical toolkit (Chernoff bounds, absorbing
Markov chains, drift lemmas, gravity, fineness coupling), and an experiment
harness that regenerates the paper's results table and theorem-by-theorem
scaling behaviour.

Quickstart
----------

>>> import repro
>>> cfg = repro.Configuration.all_distinct(256)
>>> result = repro.simulate(cfg, rule=repro.MedianRule(), seed=0)
>>> result.reached_consensus
True
"""

from repro.adversary import (
    Adversary,
    AdversaryTiming,
    BalancingAdversary,
    HidingAdversary,
    NullAdversary,
    RandomCorruptionAdversary,
    RevivingAdversary,
    StickyAdversary,
    SwitchingAdversary,
    TargetedMedianAdversary,
    make_adversary,
)
from repro.core import (
    AlmostStableCriterion,
    BestOfKMedianRule,
    Configuration,
    MajorityRule,
    MaximumRule,
    MeanRule,
    MedianRule,
    MedianRuleWithoutReplacement,
    MinimumRule,
    Rule,
    TwoChoicesMajorityRule,
    TwoChoicesRule,
    VoterRule,
    available_rules,
    get_rule,
    is_consensus,
)
from repro.engine import (
    BatchResult,
    RecordLevel,
    SimulationResult,
    run_batch,
    simulate,
)
from repro.network import CompleteTopology, NetworkSimulator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # state & rules
    "Configuration",
    "Rule",
    "MedianRule",
    "MedianRuleWithoutReplacement",
    "BestOfKMedianRule",
    "MajorityRule",
    "MinimumRule",
    "MaximumRule",
    "VoterRule",
    "MeanRule",
    "TwoChoicesMajorityRule",
    "TwoChoicesRule",
    "get_rule",
    "available_rules",
    "is_consensus",
    "AlmostStableCriterion",
    # adversaries
    "Adversary",
    "AdversaryTiming",
    "NullAdversary",
    "BalancingAdversary",
    "RevivingAdversary",
    "HidingAdversary",
    "SwitchingAdversary",
    "RandomCorruptionAdversary",
    "TargetedMedianAdversary",
    "StickyAdversary",
    "make_adversary",
    # engines
    "simulate",
    "SimulationResult",
    "BatchResult",
    "run_batch",
    "RecordLevel",
    "NetworkSimulator",
    "CompleteTopology",
]
