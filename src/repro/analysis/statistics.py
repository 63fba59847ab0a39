"""Empirical statistics of convergence times and scaling-shape fits.

The reproduction's claims are *shape* claims: measured convergence rounds
grow like the theorem's predictor (log n, log m·log log n + log n, ...), the
adversary threshold sits near sqrt(n), odd m beats even m in the average
case.  This module turns batches of measured rounds into those statements:

* :func:`summarize_rounds` — robust summary statistics of a round sample;
* :func:`fit_scaling` — least-squares fit of ``rounds ≈ a·predictor(n,m)+b``
  with the coefficient of determination, so "grows like log n" becomes an
  R² number;
* :func:`compare_predictors` — fit several candidate growth laws and rank
  them (the reproduction passes when the paper's predictor wins or ties);
* :func:`growth_ratio` — the doubling-ratio diagnostic: for x doubling, how
  much do rounds grow?  ≈ additive-constant for log-growth, ≈ ×2 for linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.theory import PREDICTORS, Predictor

__all__ = [
    "RoundsSummary",
    "summarize_rounds",
    "ScalingFit",
    "fit_scaling",
    "compare_predictors",
    "growth_ratio",
    "empirical_success_probability",
]


@dataclass(frozen=True)
class RoundsSummary:
    """Summary statistics of a sample of convergence rounds."""

    count: int
    converged: int
    mean: float
    median: float
    std: float
    q10: float
    q90: float
    maximum: float

    @property
    def convergence_fraction(self) -> float:
        return self.converged / self.count if self.count else 0.0


def summarize_rounds(rounds: Sequence[float]) -> RoundsSummary:
    """Summarize a sample of convergence rounds; NaN entries mean "did not converge"."""
    arr = np.asarray(rounds, dtype=np.float64)
    ok = arr[~np.isnan(arr)]
    if ok.size == 0:
        return RoundsSummary(count=arr.size, converged=0, mean=float("nan"),
                             median=float("nan"), std=float("nan"), q10=float("nan"),
                             q90=float("nan"), maximum=float("nan"))
    return RoundsSummary(
        count=int(arr.size),
        converged=int(ok.size),
        mean=float(ok.mean()),
        median=float(np.median(ok)),
        std=float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
        q10=float(np.quantile(ok, 0.1)),
        q90=float(np.quantile(ok, 0.9)),
        maximum=float(ok.max()),
    )


@dataclass(frozen=True)
class ScalingFit:
    """Result of fitting ``rounds ≈ slope · predictor + intercept``."""

    predictor_name: str
    slope: float
    intercept: float
    r_squared: float
    points: int

    def predict(self, predictor_value: float) -> float:
        return self.slope * predictor_value + self.intercept


def fit_scaling(
    ns: Sequence[int],
    ms: Sequence[int],
    rounds: Sequence[float],
    predictor: Predictor | str,
) -> ScalingFit:
    """Least-squares fit of measured rounds against a theoretical predictor.

    Parameters
    ----------
    ns, ms:
        Per-measurement problem sizes (m may be a constant sequence when the
        predictor ignores it).
    rounds:
        Measured convergence rounds (NaN entries are dropped).
    predictor:
        A :class:`~repro.analysis.theory.Predictor` or its registry name.
    """
    pred = PREDICTORS[predictor] if isinstance(predictor, str) else predictor
    ns = np.asarray(ns, dtype=np.float64)
    ms = np.asarray(ms, dtype=np.float64)
    y = np.asarray(rounds, dtype=np.float64)
    if not (ns.shape == ms.shape == y.shape):
        raise ValueError("ns, ms and rounds must have equal length")
    mask = ~np.isnan(y)
    ns, ms, y = ns[mask], ms[mask], y[mask]
    if y.size < 2:
        raise ValueError("need at least two converged measurements to fit")
    x = np.array([pred(int(n), int(m)) for n, m in zip(ns, ms)], dtype=np.float64)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(predictor_name=pred.name, slope=slope, intercept=intercept,
                      r_squared=r2, points=int(y.size))


def compare_predictors(
    ns: Sequence[int],
    ms: Sequence[int],
    rounds: Sequence[float],
    candidates: Optional[Sequence[str]] = None,
) -> List[ScalingFit]:
    """Fit several candidate growth laws and return them sorted by R² (best first)."""
    names = list(candidates) if candidates is not None else list(PREDICTORS)
    fits = []
    for name in names:
        try:
            fits.append(fit_scaling(ns, ms, rounds, name))
        except (ValueError, np.linalg.LinAlgError):
            continue
    return sorted(fits, key=lambda f: -f.r_squared)


def growth_ratio(sizes: Sequence[int], rounds: Sequence[float]) -> List[Tuple[int, int, float]]:
    """Doubling diagnostics: for consecutive sizes, the ratio of mean rounds.

    Logarithmic growth shows ratios drifting towards 1 as sizes double;
    linear growth shows ratios near 2.  Returns ``(size_a, size_b, ratio)``
    triples for consecutive size pairs.
    """
    sizes = list(sizes)
    rounds = list(rounds)
    if len(sizes) != len(rounds):
        raise ValueError("sizes and rounds must have equal length")
    order = np.argsort(sizes)
    out = []
    for a, b in zip(order[:-1], order[1:]):
        ra, rb = rounds[a], rounds[b]
        if ra and not np.isnan(ra) and not np.isnan(rb):
            out.append((int(sizes[a]), int(sizes[b]), float(rb / ra)))
    return out


def empirical_success_probability(converged: Sequence[bool]) -> Tuple[float, float]:
    """Estimate ``P[success]`` with a normal-approximation 95% half-width.

    Used to state "w.h.p."-style findings ("all 200 runs converged; the 95%
    CI for the failure probability is below x").
    """
    arr = np.asarray(converged, dtype=bool)
    if arr.size == 0:
        return float("nan"), float("nan")
    p = float(arr.mean())
    half_width = 1.96 * np.sqrt(max(p * (1 - p), 1e-12) / arr.size)
    return p, float(half_width)
