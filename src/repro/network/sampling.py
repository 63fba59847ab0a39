"""Two-choice sampling utilities shared by the simulators and analyses.

Small helpers around the sampling step of the protocol, whose contact
matrices come from :meth:`repro.network.topology.CompleteTopology.sample_all`:
converting contact matrices into "who chose whom" in-degree counts (used to
validate the gravity function), and adversarial manipulation of a fixed set
of choices (the Section 3 adversary changes *choices*, not values).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "choice_in_degrees",
    "override_choices",
]


def choice_in_degrees(samples: np.ndarray, n: int) -> np.ndarray:
    """How many times each process was chosen as a contact this round.

    The expected in-degree of every process is exactly ``k`` (each of the
    ``n·k`` draws is uniform), a fact used by the sampling tests; the
    *median-choice* in-degree is what the gravity function describes.
    """
    samples = np.asarray(samples)
    return np.bincount(samples.ravel(), minlength=n)[:n]


def override_choices(samples: np.ndarray, victims: np.ndarray,
                     new_choices: np.ndarray) -> np.ndarray:
    """Replace the choice rows of ``victims`` with ``new_choices``.

    Implements the Section 3 adversary that, after all balls made their
    random choices, "is allowed to change the choices of at most sqrt(n)
    balls".  Returns a new array; the input is untouched.
    """
    samples = np.asarray(samples)
    victims = np.asarray(victims, dtype=np.int64)
    new_choices = np.asarray(new_choices, dtype=np.int64)
    if new_choices.shape != (victims.shape[0], samples.shape[1]):
        raise ValueError("new_choices must have shape (len(victims), k)")
    out = np.array(samples)
    out[victims] = new_choices
    return out
