"""Rank three graphs from one-dimensional affine groups.

Constructs the Paley, generalized Paley (Van Lint-Schrijver) and Peisert
connection sets over GF(q), builds their Cayley graphs with exact
strong-regularity checks, and verifies exhaustively that these families are
the only two-orbit partitions arising from subgroups of Z_n x| <alpha> and
of GammaL(1, q).

Importing the package runs only `errors`.  fields, families, graphs,
znaction and classify are lazy modules (_LazyModule) in sys.modules, each
run on its first attribute access, so a command compiles only the modules
it calls, and a tool that patches the functions it finds in sys.modules
(perfbench/tracer.py) still finds every one.  The first access is safe
from several threads at once.  __getattr__ (PEP 562) reads each public
name from its home module.
"""

import importlib.util
import sys
import threading
import types

from . import errors

__version__ = "0.1.0"

# home module -> its public names
_PUBLIC = {
    "classify": ("ClassificationReport", "ClassifiedPartition",
                 "classify_field", "gammal1_context", "prime_powers_up_to",
                 "verify_theorem"),
    "families": ("ConnectionSet", "GeneralizedPaley", "Paley", "Peisert",
                 "Unmatched", "paley_connection_set", "peisert_connection_set",
                 "vls_connection_set"),
    "fields": ("FiniteField", "build_field"),
    "graphs": ("CayleyGraph", "NotStronglyRegular", "SrgParams",
               "build_cayley", "export_edge_list", "export_graph6",
               "srg_params"),
    "znaction": ("AffineActionContext", "Case1", "Case2", "OrbitPartition",
                 "Violation", "classify_partition",
                 "two_orbit_partitions_with_generators", "verify_lemma"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_HOME, "errors"])


_LOAD_LOCK = threading.RLock()
_RUNNING = set()


class _LazyModule(types.ModuleType):
    """A submodule that has not run: the first attribute access runs it.

    Every access waits on _LOAD_LOCK until the module has run, so no other
    thread sees it half run (importlib.util.LazyLoader takes none on Python
    3.10 to 3.12.1); the thread running it reads its attributes as they are.
    """

    def __getattribute__(self, attr):
        with _LOAD_LOCK:
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    spec = object.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                finally:
                    _RUNNING.discard(self)
                self.__class__ = types.ModuleType
        return object.__getattribute__(self, attr)


def _lazy(name):
    """Register submodule name in sys.modules, to run on first access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


globals().update({name: _lazy(name) for name in _PUBLIC})


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
