"""Reproducible randomness management.

All simulation randomness flows through ``numpy.random.Generator`` objects
derived from a single ``SeedSequence``.  Child streams for independent runs
(or independent worker processes in a sweep) are created with
``SeedSequence.spawn``, which guarantees statistical independence between
streams — the recommended practice for parallel Monte-Carlo work.

This module is also the home of the *multinomial kernel selection plumbing*
(re-exported from :mod:`repro.engine._multinomial`): which backend draws the
occupancy engines' exact multinomial flows — ``numpy``
(``Generator.multinomial`` over the dense outcome matrix, the historical bit
stream) or ``compiled`` (the C kernel's banded walker, O(m) binomial draws
per run).  Select with :func:`set_multinomial_backend` or the
``REPRO_MULTINOMIAL_KERNEL`` environment variable; inspect with
:func:`resolve_multinomial_backend` / :func:`multinomial_kernel_id`.
Reproducibility is backend-scoped: a fixed seed pins results bit-for-bit
*within* a backend, while the backends agree only in distribution
(compiled draws bridge the NumPy stream through one 64-bit seed per kernel
call).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.engine._multinomial import (
    BACKEND_CHOICES as MULTINOMIAL_BACKEND_CHOICES,
    ENV_VAR as MULTINOMIAL_KERNEL_ENV,
    KernelInfo,
    MultinomialKernelWarning,
    multinomial_kernel_id,
    resolve_multinomial_backend,
    set_multinomial_backend,
)

__all__ = ["make_rng", "spawn_rngs", "spawn_seeds", "RngPool",
           "MULTINOMIAL_BACKEND_CHOICES", "MULTINOMIAL_KERNEL_ENV",
           "KernelInfo", "MultinomialKernelWarning",
           "multinomial_kernel_id", "resolve_multinomial_backend",
           "set_multinomial_backend"]


def make_rng(seed: Optional[int | np.random.SeedSequence | np.random.Generator] = None
             ) -> np.random.Generator:
    """Create a ``Generator`` from a seed, a ``SeedSequence`` or pass through a ``Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seeds(seed: Optional[int], count: int) -> List[np.random.SeedSequence]:
    """Spawn ``count`` independent child ``SeedSequence`` objects from ``seed``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    root = np.random.SeedSequence(seed)
    return root.spawn(count)


def spawn_rngs(seed: Optional[int], count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from one seed."""
    return [np.random.default_rng(ss) for ss in spawn_seeds(seed, count)]


class RngPool:
    """A lazily-expanding pool of independent generators.

    Useful when the number of runs is not known upfront (e.g. adaptive
    experiments): each call to :meth:`next` spawns a fresh independent child
    stream from the same root seed sequence, so results remain reproducible
    for a fixed request order.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self._issued = 0

    def next(self) -> np.random.Generator:
        """Return the next independent generator from the pool."""
        child = self._root.spawn(1)[0]
        self._issued += 1
        return np.random.default_rng(child)

    def take(self, count: int) -> List[np.random.Generator]:
        """Return ``count`` further independent generators."""
        children = self._root.spawn(count)
        self._issued += count
        return [np.random.default_rng(c) for c in children]

    @property
    def issued(self) -> int:
        """How many generators have been handed out so far."""
        return self._issued
