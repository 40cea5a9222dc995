"""Closed-form Schmidt decompositions and orthogonal-set construction for
two-qubit states, with an independent eigensolver route for verification,
spectral mixed-state building, and a JSON command-line front end."""

from importlib import import_module as _import_module

from .errors import (
    DiagonalError,
    InvalidArgumentError,
    InvalidDensityError,
    NotDiagonalError,
    NotFiniteError,
    NotNormalizedError,
    NotOrthogonalError,
    QuantumStateError,
    RejectionLimitError,
    UnknownTypeError,
    ZeroParameterError,
    ZeroVectorError,
)
from .scalar import DEFAULT_TOL, VERIFY_TOL, concurrence
from .schmidt import (
    SchmidtDecomposition,
    reconstruct,
    schmidt,
    schmidt_diagonal,
    schmidt_nondiagonal,
)

# Every other public name, by the submodule that defines it.  Those modules
# load on first access (PEP 562), so a process pays only for the parts it
# uses; the command line relies on this to keep each verb's start-up small.
# The eager imports above do not load numpy.  Of the modules below, `core`
# loads it on import, the others only once they build or read an array.
_EXPORTS = {
    "core": (
        "KET0",
        "KET1",
        "MINUS",
        "PHI_MINUS",
        "PHI_PLUS",
        "PLUS",
        "PSI_MINUS",
        "PSI_PLUS",
        "make_qubit",
        "make_state",
        "tensor",
    ),
    "pairs": (
        "A_SIDE",
        "B_SIDE",
        "OrthoSet",
        "construct_ee_diagonal",
        "construct_ee_nondiagonal",
        "construct_ep",
        "construct_pe_diagonal",
        "construct_pe_nondiagonal",
        "construct_pp",
    ),
    "triples": (
        "construct_ppe_case1",
        "construct_ppe_case2",
        "construct_ppe_case3",
        "construct_ppp",
        "orthonormal_qubit_basis",
    ),
    "bases": (
        "complete_ppp",
        "construct_mmee_diagonal",
        "construct_mmee_nondiagonal",
        "construct_pm",
        "construct_pmee",
        "construct_ppee_case1",
        "construct_ppee_case2",
        "construct_ppee_case3",
        "construct_pppp",
    ),
    "oracle": (
        "StateReport",
        "VerificationReport",
        "classify",
        "oracle_schmidt",
        "verify_set",
    ),
    "sampling": (
        "SampleSpec",
        "SplitMix64",
        "random_qubit",
        "random_qubit_basis",
        "sample",
    ),
    "mixed": ("reduce_a", "reduce_b", "spectral_mix"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}

# The eager names bound above (the submodules ``errors`` and ``scalar``
# among them, as the import system binds them), then the lazy names and
# modules.
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [*_LAZY, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
