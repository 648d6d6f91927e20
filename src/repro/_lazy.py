"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names in one table, name ->
defining submodule, and installs the pair this module builds::

    _EXPORTS = {"Task": "task", "TaskSet": "taskset"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

``import repro.model`` then loads no submodule; the first
``repro.model.Task`` imports ``repro.model.task`` and caches the value
in the package's globals, so later lookups never reach ``__getattr__``.
A command therefore pays only for the modules it actually runs.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    namespace: dict, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package owning ``namespace``.

    ``exports`` maps each exported name to the submodule that defines
    it, relative to the package (``"task"``, ``"model.task"``).
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(
            importlib.import_module(f"{package}.{submodule}"), name
        )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
