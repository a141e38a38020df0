"""Quantum pushdown automata: tables, unitarity checks, recognition runs."""

import importlib.util
import sys
import threading
import types

from .model import (
    Alphabets,
    DfaSpec,
    Direction,
    QpaError,
    QpaSpec,
    StructureError,
    StructureViolation,
    SymbolError,
    TransitionKey,
    parse_amplitude,
    format_amplitude,
    validate_structure,
)
from .io import (
    ParseError,
    load_dfa,
    load_qpa,
    qpa_dumps,
    qpa_loads,
    save_dfa,
    save_qpa,
)
from .wellformed import (
    ConditionReport,
    ConditionSummary,
    check_all,
    check_column_orthogonality,
    check_local_probability,
    check_row_norm,
    check_separability,
)
from .evolve import (
    Configuration,
    RecognitionResult,
    Superposition,
    TapeContext,
    TapeOverrunError,
    NotWellFormedError,
    apply_evolution,
    decide,
    measure,
    recognize,
    trace,
)
from .dfa2rpa import compile_dfa
from . import zoo

__version__ = "0.1.0"

_load_lock = threading.Lock()


class _LazyModule(types.ModuleType):
    """A submodule that runs its code on first attribute access, once, under a lock."""

    def __getattr__(self, name: str):
        with _load_lock:
            if type(self) is _LazyModule:
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return getattr(self, name)


# Only the matrix lab needs numpy. It is in sys.modules from here on, but
# its code runs, and loads numpy, on first use of one of its names.
matrixlab = importlib.util.module_from_spec(importlib.util.find_spec(".matrixlab", __name__))
matrixlab.__class__ = _LazyModule
sys.modules[matrixlab.__name__] = matrixlab
_MATRIXLAB_NAMES = frozenset({
    "ConfigWindow", "TruncatedMatrix", "UnitarityReport", "WindowCapError", "banded_associativity_probe",
    "build_matrix", "check_truncated_unitarity", "enumerate_window", "row_norm_bound_probe", "shift_fixture",
})


def __getattr__(name: str):
    if name not in _MATRIXLAB_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(matrixlab, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MATRIXLAB_NAMES)
