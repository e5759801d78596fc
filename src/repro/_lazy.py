"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imported its re-exports eagerly would load
their submodules -- and NumPy and both simulators behind them -- in
every process that imports the package, even one that only wants
:mod:`repro.knobs` or the serve client.  :func:`exports` gives a
package a module ``__getattr__`` that imports a name's submodule the
first time the name is read, and reads the name from it on every access
after, so a name rebound in its submodule (a test's monkeypatch, a
benchmark's wrapper) is the one the package returns.
"""

from __future__ import annotations

import importlib
import sys
import types


class _Package(types.ModuleType):
    """A package that keeps each exported name bound to its export.

    Four exports share their submodule's name (``repro.core.hgemm`` is
    a function and a module).  Importing the submodule binds it on the
    package, and a module ``__getattr__`` never runs for an attribute
    that exists, so after ``import repro.core.hgemm`` the name would be
    the module.  This class refuses that one binding.
    """

    def __setattr__(self, name, value):
        if (isinstance(value, types.ModuleType)
                and name in vars(self).get("__all__", ())):
            return
        super().__setattr__(name, value)


def exports(package: str, table: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` of *package*'s re-exports.

    *table* maps each submodule, relative to *package*, to the names
    the package re-exports from it.  Assign the result to the three
    module names in the package ``__init__``.
    """
    sources = {name: submodule for submodule, names in table.items()
               for name in names}

    def __getattr__(name):
        try:
            submodule = sources[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        return getattr(importlib.import_module(submodule, package), name)

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(sources))

    sys.modules[package].__class__ = _Package
    return list(sources), __getattr__, __dir__
