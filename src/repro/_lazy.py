"""Package re-exports that load on first use (PEP 562).

A package ``__init__`` that imports its re-exports makes every import of
one of its submodules pay for all of them: ``from
repro.experiments.spec import RunSpec`` would load the simulator, the
runner and the serve daemon.  Instead each package names where its
exports live and lets :func:`lazy_exports` build the module-level
``__getattr__`` and ``__dir__`` that import a home module when one of its
names is first read.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict[str, Any], homes: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.

    ``homes`` maps each home module to the names it exports.  A name that
    is the home module's own last component (``"repro.models.zoo":
    ("zoo",)``) exports the module itself.  A resolved name is stored in
    ``namespace``, so it costs a dictionary lookup from then on.
    """
    home_of = {name: home for home, names in homes.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(home)
        value = module if home.rpartition(".")[2] == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__
