"""One canonical JSON dump of the outputs the byte-identity rule names.

Run from a checkout, against the tree on ``PYTHONPATH``::

    PYTHONPATH=src python tests/canonical_outputs.py OUT [--scale S] [--figures-only]

``OUT`` receives one strict-JSON file (``to_jsonable``, sorted keys,
``allow_nan=False``) holding

* the report and the table of every ``FIGURE_REGISTRY`` figure at scale
  ``S`` (default 1.0), and
* unless ``--figures-only``, ``run_cell`` over
  ``perfbench/workloads.py::count_space_cells(seed)`` for seeds 0, 1 and 2.

A change that must not move a random draw leaves this file unchanged: dump
it on the parent tree and on the change, on each multinomial kernel
(``REPRO_MULTINOMIAL_KERNEL``), and ``cmp`` the two files.  Like
``tests/equivalence.py`` this is a helper module that pytest does not
collect; ``tests/test_determinism.py`` runs it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: The seeds of ``count_space_cells`` in the dump.
COUNT_SPACE_SEEDS = (0, 1, 2)


def figure_outputs(scale: float) -> Dict[str, Any]:
    """Report and table of every registered figure at ``scale``."""
    from repro.experiments.figures import FIGURE_REGISTRY

    outputs = {}
    for name, reproduce in FIGURE_REGISTRY.items():
        figure = reproduce(scale=scale)
        outputs[name] = {"report": figure.report.to_dict(), "table": figure.table}
    return outputs


def count_space_outputs() -> Dict[str, Any]:
    """``run_cell`` over the count-space benchmark cells of each seed."""
    # the cells are defined once, in the benchmark's workload module
    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import count_space_cells

    from repro.experiments.runner import run_cell

    return {str(seed): [run_cell(cell).to_dict() for cell in count_space_cells(seed)]
            for seed in COUNT_SPACE_SEEDS}


def canonical_outputs(scale: float = 1.0, figures_only: bool = False) -> str:
    """The dump as one canonical JSON string."""
    from repro.io.serialization import to_jsonable

    outputs: Dict[str, Any] = {"figures": figure_outputs(scale)}
    if not figures_only:
        outputs["count_space"] = count_space_outputs()
    return json.dumps(to_jsonable(outputs), sort_keys=True, allow_nan=False)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="file to write the dump to")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale of every figure (default 1.0)")
    parser.add_argument("--figures-only", action="store_true",
                        help="leave out the count-space cells")
    args = parser.parse_args(argv)
    args.out.write_text(canonical_outputs(args.scale, args.figures_only) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
