"""Initial-assignment (workload) generators.

The paper's experiments (its theorem statements) are parameterized by the
initial distribution of balls into bins.  Each generator here produces either
a fixed :class:`~repro.core.state.Configuration` or a per-run factory
``rng -> Configuration``; both forms are accepted by
:func:`repro.engine.batch.run_batch`.

Registered workloads (``make_workload(name, **params)``):

``all-distinct``
    The all-one assignment — every process holds its own value (m = n).  The
    finest and therefore worst-case initial state (Lemma 17); used by the
    Theorem 1 experiment.
``two-bins``
    A two-value split with a given minority size (or a perfectly balanced
    split by default) — Section 3 / Theorem 10.
``uniform-random``
    Every process draws one of m values uniformly at random — the average
    case of Section 5 / Theorems 4, 21.
``blocks``
    m equal (or near-equal) contiguous blocks of processes per value — the
    worst-case m-value state used by the Theorem 3 experiment.
``zipf``
    Values drawn from a Zipf-like distribution over m values — a skewed
    workload exercising the "one bin already dominates" regime (not from the
    paper; useful as an example scenario).
``planted-majority``
    One value planted on a ``bias`` fraction of processes, the rest uniform
    over the remaining m−1 values; models the "replicated state with a
    mostly-correct copy" application from the introduction.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.core.occupancy_state import OccupancyState
from repro.core.state import Configuration

__all__ = [
    "WorkloadFactory",
    "implied_support_width",
    "all_distinct_workload",
    "two_bins_workload",
    "uniform_random_workload",
    "blocks_workload",
    "zipf_workload",
    "planted_majority_workload",
    "WORKLOAD_REGISTRY",
    "make_workload",
    "make_occupancy_workload",
    "make_workload_for_engine",
]

WorkloadFactory = Union[Configuration, Callable[[np.random.Generator], Configuration]]


def implied_support_width(name: str, params: Dict[str, object]) -> int:
    """Number of distinct initial values a workload implies (0 if unknown).

    The single source for the ``m`` a cell's engine-selection logic reasons
    about: explicit ``m`` parameters win, ``all-distinct`` implies m = n,
    ``two-bins`` implies 2 (see ``ExperimentConfig.m`` and
    ``repro.experiments.runner.resolve_cell_engine``).
    """
    if "m" in params:
        return int(params["m"])
    if name == "all-distinct":
        return int(params.get("n", 0))
    if name == "two-bins":
        return 2
    return 0

OccupancyWorkloadFactory = Union[
    OccupancyState, Callable[[np.random.Generator], OccupancyState]
]


def all_distinct_workload(n: int) -> Configuration:
    """Every process holds its own distinct value (the all-one assignment)."""
    return Configuration.all_distinct(n)


def two_bins_workload(n: int, minority: Optional[int] = None,
                      low: int = 0, high: int = 1) -> Configuration:
    """Two values; ``minority`` processes hold ``low`` (default: balanced split)."""
    if minority is None:
        minority = n // 2
    return Configuration.two_bins(n, minority=minority, low=low, high=high)


def uniform_random_workload(n: int, m: int) -> Callable[[np.random.Generator], Configuration]:
    """Average case: each process draws one of ``m`` values uniformly (per-run factory)."""
    if m <= 0:
        raise ValueError("m must be positive")

    def factory(rng: np.random.Generator) -> Configuration:
        return Configuration.uniform_random(n, m, rng)

    return factory


def blocks_workload(n: int, m: int) -> Configuration:
    """``m`` near-equal blocks: value ``v`` is held by ~n/m consecutive processes.

    This is the natural deterministic worst case for m values: all bins start
    with (almost) the same load, so no value has an initial head start.
    """
    if m <= 0 or m > n:
        raise ValueError("m must lie in [1, n]")
    values = (np.arange(n, dtype=np.int64) * m) // n
    return Configuration.from_values(values)


def zipf_workload(n: int, m: int, exponent: float = 1.2
                  ) -> Callable[[np.random.Generator], Configuration]:
    """Values drawn from a truncated Zipf(exponent) distribution over ``m`` values."""
    if m <= 0:
        raise ValueError("m must be positive")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    weights = 1.0 / np.power(np.arange(1, m + 1, dtype=np.float64), exponent)
    weights /= weights.sum()

    def factory(rng: np.random.Generator) -> Configuration:
        picks = rng.choice(m, size=n, p=weights)
        return Configuration.from_values(picks.astype(np.int64))

    return factory


def planted_majority_workload(n: int, m: int, bias: float = 0.4, planted_value: int = 0
                              ) -> Callable[[np.random.Generator], Configuration]:
    """A ``bias`` fraction of processes hold ``planted_value``; the rest are uniform.

    Models the replicated-state-consolidation application: most replicas hold
    the correct state, a minority are stale/divergent.
    """
    if not 0.0 <= bias <= 1.0:
        raise ValueError("bias must lie in [0, 1]")
    if m <= 1:
        raise ValueError("m must be at least 2")

    def factory(rng: np.random.Generator) -> Configuration:
        values = rng.integers(1, m, size=n).astype(np.int64)
        planted = rng.random(n) < bias
        values[planted] = planted_value
        return Configuration.from_values(values)

    return factory


WORKLOAD_REGISTRY: Dict[str, Callable[..., WorkloadFactory]] = {
    "all-distinct": all_distinct_workload,
    "two-bins": two_bins_workload,
    "uniform-random": uniform_random_workload,
    "blocks": blocks_workload,
    "zipf": zipf_workload,
    "planted-majority": planted_majority_workload,
}


def make_workload(name: str, **params) -> WorkloadFactory:
    """Build a workload (fixed configuration or per-run factory) by registry name."""
    if name not in WORKLOAD_REGISTRY:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_REGISTRY)}")
    return WORKLOAD_REGISTRY[name](**params)


# ---------------------------------------------------------------------- #
# occupancy-native workload construction (O(m) memory, n up to 10⁹)
# ---------------------------------------------------------------------- #
def _blocks_counts(n: int, m: int) -> np.ndarray:
    # value v is held by exactly the i with (i*m)//n == v, i.e. the integer
    # points of [ceil(v*n/m), ceil((v+1)*n/m)) — identical to blocks_workload
    edges = -(-np.arange(m + 1, dtype=np.int64) * n // m)  # ceil(v*n/m)
    return np.diff(edges)


#: Accepted parameters per workload, mirroring the per-process generators'
#: signatures so both construction paths reject the same typos.
_OCCUPANCY_WORKLOAD_PARAMS: Dict[str, frozenset] = {
    "all-distinct": frozenset({"n"}),
    "two-bins": frozenset({"n", "minority", "low", "high"}),
    "blocks": frozenset({"n", "m"}),
    "uniform-random": frozenset({"n", "m"}),
    "zipf": frozenset({"n", "m", "exponent"}),
    "planted-majority": frozenset({"n", "m", "bias", "planted_value"}),
}


def make_occupancy_workload(name: str, **params) -> OccupancyWorkloadFactory:
    """Build the same initial distributions directly as occupancy vectors.

    Produces either a fixed :class:`~repro.core.occupancy_state.OccupancyState`
    or a per-run factory ``rng -> OccupancyState`` with **identical law** to
    ``make_workload(name, ...)`` followed by counting, but O(m) memory instead
    of O(n) — this is what lets the occupancy engine start an n = 10⁹ run
    without ever materializing a value array.  Random workloads draw the
    counts from the induced multinomial/binomial distributions.
    """
    if name not in WORKLOAD_REGISTRY:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_REGISTRY)}")
    allowed = _OCCUPANCY_WORKLOAD_PARAMS[name]
    unexpected = set(params) - allowed
    if unexpected:
        raise TypeError(
            f"workload {name!r} got unexpected parameters {sorted(unexpected)}; "
            f"accepted: {sorted(allowed)}"
        )

    if name == "all-distinct":
        n = int(params["n"])
        if n <= 0:
            raise ValueError("n must be positive")
        return OccupancyState(support=np.arange(n, dtype=np.int64),
                              counts=np.ones(n, dtype=np.int64))

    if name == "two-bins":
        n = int(params["n"])
        minority = int(params.get("minority", n // 2))
        low = int(params.get("low", 0))
        high = int(params.get("high", 1))
        if not 0 <= minority <= n:
            raise ValueError("minority must lie in [0, n]")
        # the loads of Configuration.two_bins, for any pair (low, high)
        loads = {high: n - minority}
        loads[low] = loads.get(low, 0) + minority
        return OccupancyState.from_loads(loads)

    if name == "blocks":
        n, m = int(params["n"]), int(params["m"])
        if m <= 0 or m > n:
            raise ValueError("m must lie in [1, n]")
        return OccupancyState(support=np.arange(m, dtype=np.int64),
                              counts=_blocks_counts(n, m))

    if name == "uniform-random":
        n, m = int(params["n"]), int(params["m"])
        if m <= 0 or n <= 0:
            raise ValueError("n and m must be positive")

        def uniform_factory(rng: np.random.Generator) -> OccupancyState:
            counts = rng.multinomial(n, np.full(m, 1.0 / m))
            return OccupancyState(support=np.arange(m, dtype=np.int64), counts=counts)

        return uniform_factory

    if name == "zipf":
        n, m = int(params["n"]), int(params["m"])
        exponent = float(params.get("exponent", 1.2))
        if m <= 0 or exponent <= 0:
            raise ValueError("m and exponent must be positive")
        weights = 1.0 / np.power(np.arange(1, m + 1, dtype=np.float64), exponent)
        weights /= weights.sum()

        def zipf_factory(rng: np.random.Generator) -> OccupancyState:
            counts = rng.multinomial(n, weights)
            return OccupancyState(support=np.arange(m, dtype=np.int64), counts=counts)

        return zipf_factory

    if name == "planted-majority":
        n, m = int(params["n"]), int(params["m"])
        bias = float(params.get("bias", 0.4))
        planted_value = int(params.get("planted_value", 0))
        if not 0.0 <= bias <= 1.0:
            raise ValueError("bias must lie in [0, 1]")
        if m <= 1:
            raise ValueError("m must be at least 2")

        def planted_factory(rng: np.random.Generator) -> OccupancyState:
            planted = int(rng.binomial(n, bias))
            rest = rng.multinomial(n - planted, np.full(m - 1, 1.0 / (m - 1)))
            loads: Dict[int, int] = {v: int(c) for v, c in zip(range(1, m), rest)}
            loads[planted_value] = loads.get(planted_value, 0) + planted
            return OccupancyState.from_loads(loads)

        return planted_factory

    raise KeyError(f"workload {name!r} has no occupancy-native form")


def make_workload_for_engine(name: str, engine: str, **params
                             ) -> Union[WorkloadFactory, OccupancyWorkloadFactory]:
    """Build the initial state in the representation the engine simulates in.

    ``"occupancy"`` and ``"occupancy-fused"`` get O(m) count vectors (so
    n = 10⁹ cells never materialize a value array); every other engine gets
    the per-process form.
    """
    if engine in ("occupancy", "occupancy-fused"):
        return make_occupancy_workload(name, **params)
    return make_workload(name, **params)
