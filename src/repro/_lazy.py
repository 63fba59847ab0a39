"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package whose public names live in submodules binds the pair returned by
:func:`lazy_exports` as its module ``__getattr__`` and ``__dir__``.  Each
name is then imported from its submodule on first access and cached in the
package namespace, so ``import repro.store`` costs nothing until a name is
used, and a process only loads the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule (absolute dotted name) to the public
    names it provides.  Those submodules are attributes of the package as
    well, imported on first access as an eager ``__init__`` would have
    done; any other name raises :class:`AttributeError`.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}
    prefix = package + "."
    submodules = {module[len(prefix):] for module in exports
                  if module.startswith(prefix)
                  and "." not in module[len(prefix):]}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in submodules:
            return importlib.import_module(prefix + name)
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner) | submodules)

    return __getattr__, __dir__
