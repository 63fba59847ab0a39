"""Update-rule framework.

A *rule* describes how every process updates its value in one synchronous
round, given (a) its own current value and (b) the values of the processes it
sampled this round.  The paper's contribution is the :class:`~repro.core.median_rule.MedianRule`
(sample two, take the median of three); the baselines of Section 1
(minimum rule, mean rule, single-choice voter) are in
:mod:`repro.core.baseline_rules`.

Two execution surfaces are supported by every rule:

``apply_vectorized(values, samples, rng)``
    One whole round at once: ``values`` is the length-``n`` value vector and
    ``samples`` is an ``(n, k)`` integer array whose row ``j`` lists the
    indices of the ``k`` processes sampled by process ``j``.  This is the hot
    path used by :mod:`repro.engine.vectorized`.

``apply_single(own_value, sampled_values, rng)``
    One process at a time, used by the agent-level message-passing simulator
    in :mod:`repro.network.simulator`.

Rules are registered by name in :data:`RULE_REGISTRY` so experiments can be
configured with plain strings.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Sequence, Type

import numpy as np

__all__ = ["Rule", "RULE_REGISTRY", "register_rule", "get_rule", "available_rules",
           "require_uniform_contacts"]


class Rule(abc.ABC):
    """Abstract base class for per-round value-update rules.

    Attributes
    ----------
    name:
        Registry name of the rule (class attribute, overridden by subclasses).
    num_choices:
        How many other processes each process samples per round (``k``).
    preserves_values:
        True iff the rule can only ever output one of its input values
        (median, minimum, voter...).  The mean rule sets this to False; it is
        the property that makes a rule solve *consensus* rather than mere
        convergence (Section 1.2).
    """

    name: str = "abstract"
    num_choices: int = 2
    preserves_values: bool = True

    # ------------------------------------------------------------------ #
    # core interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def apply_vectorized(
        self,
        values: np.ndarray,
        samples: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Compute the next value vector for a whole round.

        Parameters
        ----------
        values:
            Current value vector of shape ``(n,)``.
        samples:
            Index array of shape ``(n, k)``; row ``j`` holds the indices of
            the processes sampled by process ``j`` this round.
        rng:
            Source of randomness for rules that need tie-breaking coins.

        Returns
        -------
        numpy.ndarray
            New value vector of shape ``(n,)``.  Must not alias ``values``.
        """

    @abc.abstractmethod
    def apply_single(
        self,
        own_value: int,
        sampled_values: Sequence[int],
        rng: np.random.Generator,
    ) -> int:
        """Compute one process's next value from its own and sampled values."""

    # ------------------------------------------------------------------ #
    # conveniences shared by all rules
    # ------------------------------------------------------------------ #
    def sample_contacts(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the round's contacts: ``(n, k)`` uniform indices in ``[0, n)``.

        The paper samples *uniformly and independently at random among all
        processes (including itself)*, i.e. with replacement; subclasses may
        override for ablations (e.g. excluding self).
        """
        return rng.integers(0, n, size=(n, self.num_choices), dtype=np.int64)

    def step(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One full synchronous round: sample contacts then apply the rule."""
        values = np.asarray(values, dtype=np.int64)
        samples = self.sample_contacts(values.shape[0], rng)
        return self.apply_vectorized(values, samples, rng)

    def validate_samples(self, n: int, samples: np.ndarray) -> None:
        """Raise ``ValueError`` if a sample matrix is malformed for this rule.

        Every matrix is checked, the engine's own draws included:
        ``sample_contacts`` may be overridden, so a drawn matrix is not in
        range by construction.
        """
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[1] != self.num_choices:
            raise ValueError(
                f"{self.name}: expected samples of shape (n, {self.num_choices}), "
                f"got {samples.shape}"
            )
        if samples.shape[0] != n:
            raise ValueError(f"{self.name}: samples rows {samples.shape[0]} != n={n}")
        if samples.size and _indices_out_of_range(samples, n):
            raise ValueError(f"{self.name}: sample indices out of range [0, {n})")

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


def require_uniform_contacts(rule: Rule, engine: str) -> None:
    """Raise ``ValueError`` if ``rule`` draws its contacts by its own law.

    The per-process engines (the network simulator, the asynchronous model)
    draw each process's ``k`` contacts uniformly with replacement, the law of
    :meth:`Rule.sample_contacts`; they cannot honour a rule that overrides it.
    """
    if type(rule).sample_contacts is not Rule.sample_contacts:
        raise ValueError(
            f"{engine} draws k uniform contacts per process and cannot honour "
            f"the {rule.name} rule's own contact law; run it with simulate or "
            f"simulate_occupancy"
        )


def _indices_out_of_range(samples: np.ndarray, n: int) -> bool:
    """True iff some entry of ``samples`` lies outside ``[0, n)``.

    Signed integers take one reduction: viewed as unsigned, a negative index
    becomes at least ``2**(bits-1)``, which is ``>= n`` whenever every index
    in ``[0, n)`` fits the signed type.
    """
    if samples.dtype.kind == "i" and n <= 1 << (8 * samples.dtype.itemsize - 1):
        unsigned = samples.view(samples.dtype.str.replace("i", "u"))
        return bool(np.maximum.reduce(unsigned, axis=None) >= n)
    return bool(samples.min() < 0 or samples.max() >= n)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY` under ``cls.name``."""
    if not issubclass(cls, Rule):
        raise TypeError("register_rule expects a Rule subclass")
    if cls.name in RULE_REGISTRY and RULE_REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    RULE_REGISTRY[cls.name] = cls
    return cls


def get_rule(name: str, **kwargs) -> Rule:
    """Instantiate a registered rule by name.

    >>> get_rule("median").name
    'median'
    """
    # Import lazily so that importing this module alone does not force the
    # whole rule zoo, but string lookup always works for library users.
    from repro.core import baseline_rules, majority_rule, median_rule  # noqa: F401

    try:
        cls = RULE_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown rule {name!r}; available: {sorted(RULE_REGISTRY)}"
        ) from exc
    return cls(**kwargs)


def available_rules() -> Dict[str, Type[Rule]]:
    """Return a copy of the rule registry (after loading built-in rules)."""
    from repro.core import baseline_rules, majority_rule, median_rule  # noqa: F401

    return dict(RULE_REGISTRY)
