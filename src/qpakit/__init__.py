"""Quantum pushdown automata: tables, unitarity checks, recognition runs.

Every submodule is in ``sys.modules`` from ``import qpakit`` on, but its
code runs on first use of one of its names, so a command runs only the
modules it uses: ``check`` never runs the recognition loop, and only the
matrix lab loads numpy.  Each public name below is served from the
submodule that owns it.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# each submodule and the public names it owns
_NAMES = {
    "model": "Alphabets DfaSpec Direction ParseError QpaError QpaSpec StructureError StructureViolation "
             "SymbolError TransitionKey parse_amplitude format_amplitude validate_structure",
    "io": "load_dfa load_qpa qpa_dumps qpa_loads save_dfa save_qpa",
    "wellformed": "ConditionReport ConditionSummary check_all check_column_orthogonality check_local_probability "
                  "check_row_norm check_separability",
    "evolve": "Configuration RecognitionResult Superposition TapeContext TapeOverrunError NotWellFormedError "
              "apply_evolution decide measure recognize trace",
    "dfa2rpa": "compile_dfa",
    "zoo": "",
    "matrixlab": "ConfigWindow TruncatedMatrix UnitarityReport WindowCapError banded_associativity_probe "
                 "build_matrix check_truncated_unitarity enumerate_window row_norm_bound_probe shift_fixture",
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names.split()}

# reentrant: a module that runs on first use may use another lazy module while it runs
_load_lock = threading.RLock()


class _LazyModule(types.ModuleType):
    """A submodule that runs its code on first use of a name, once, under the load lock.

    A thread that asks for a name while another runs the module waits until
    the whole module has run.  Its namespace and the dunders it holds before
    it runs (spec, name, file) are served without running it.
    """

    def __getattribute__(self, name: str):
        if name != "__dict__" and (name[:2] != "__" or name not in vars(self)):
            with _load_lock:
                if type(self) is _LazyModule:
                    self.__spec__.loader.exec_module(self)
                    self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


for _name in _NAMES:
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f".{_name}", __name__))
    _module.__class__ = _LazyModule
    sys.modules[_module.__name__] = globals()[_name] = _module
del _name, _module


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _OWNER.keys())
