"""PEP 562 export tables: a package ``__init__`` that gathers names from
many submodules imports each when one of its names is first asked for."""

import importlib
from collections.abc import Callable
from typing import Any


def lazy_exports(namespace: dict[str, Any],
                 exports: dict[str, tuple[str, ...]],
                 ) -> tuple[list[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` of the package with these ``globals()``;
    *exports* maps each of its submodules to the names it gives."""
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{owner[name]}", package)
        value = namespace[name] = getattr(module, name)
        return value

    return list(owner), __getattr__
