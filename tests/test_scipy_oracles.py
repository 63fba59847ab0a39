"""scipy as a test oracle for the closed forms that replaced it in ``src/``.

Nothing under ``src/`` imports scipy; these tests pin the erfc normal tail
of Lemma 14 and the log-space binomial pmfs of the exact two-bin chain to
scipy's reference implementations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import binom, norm

from repro.analysis.clt import lemma14_asymptotic_probability, lemma14_lower_bound
from repro.core.majority_rule import exact_two_bin_transition, two_bin_step_distribution


@pytest.mark.parametrize("c", [3.0, 3.5, 4.0, 6.0])
def test_lemma14_tail_is_exact_far_out(c):
    # 1 - norm.cdf(x) cancels to 0.0 from c = 4 on, below the lemma's own
    # lower bound; the tail must stay above it with no slack
    tail = lemma14_asymptotic_probability(c)
    assert 0.0 < lemma14_lower_bound(c) <= tail
    assert tail == pytest.approx(norm.sf(c * math.sqrt(16.0 / 3.0)),
                                 rel=1e-12, abs=0.0)


def _scipy_two_bin_step(n, minority):
    p_leave, p_join = exact_two_bin_transition(n, minority)
    stay = binom.pmf(np.arange(minority + 1), minority, 1.0 - p_leave)
    join = binom.pmf(np.arange(n - minority + 1), n - minority, p_join)
    dist = np.clip(np.convolve(stay, join), 0.0, None)
    return dist / dist.sum()


@pytest.mark.parametrize("n", [1, 2, 20, 64, 512])
def test_two_bin_step_distribution_matches_scipy_binom(n):
    for minority in range(n + 1):
        np.testing.assert_allclose(two_bin_step_distribution(n, minority),
                                   _scipy_two_bin_step(n, minority),
                                   rtol=0.0, atol=1e-12,
                                   err_msg=f"n={n}, minority={minority}")
