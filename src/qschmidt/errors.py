"""Domain errors raised at the package's public boundaries.

Each refusal raises the class of its fault, whichever call finds it: a
scalar that is not a finite number, `NotFiniteError`; a value outside its
interval, or a wrong count or shape, `InvalidArgumentError`; a zero
parameter, or parameters that make a promised entangled member a product,
`ZeroParameterError`; a norm off 1, `NotNormalizedError`; an overlap,
`NotOrthogonalError`; a member on the wrong branch, `NotDiagonalError` or
`DiagonalError`.  The command line's refusals of JSON text and JSON shape
raise `QuantumStateError` itself.
"""

from __future__ import annotations


class QuantumStateError(ValueError):
    """Base class for every domain error this package raises."""


class NotFiniteError(QuantumStateError):
    """A scalar is not a finite number: an amplitude, parameter or mixing
    weight that is NaN, infinite, an integer too large for a float, or not
    a number at all (a string, ``None``, a bool weight), or amplitudes
    whose squared norm overflows."""


class ZeroVectorError(QuantumStateError):
    """All amplitudes of a would-be state vector are zero."""


class NotNormalizedError(QuantumStateError):
    """A vector that must be unit norm is not: `make_state` or `make_qubit`
    input without ``normalize``, a `tensor` factor, or a member of
    `classify`, `spectral_mix` or `complete_ppp`."""


class NotDiagonalError(QuantumStateError):
    """A state or constructor member promised the diagonal branch takes the
    non-diagonal one by `schmidt._branch`."""


class DiagonalError(QuantumStateError):
    """A state or constructor member promised the non-diagonal branch takes
    the diagonal one by `schmidt._branch`; that formula's internal vectors
    vanish there."""


class ZeroParameterError(QuantumStateError):
    """A parameter that must be nonzero is zero, or parameters make a member
    the family promises entangled a product: EP's a = b = 0 or a factor of
    zero norm, a gamma so small that EP's or EE's first member is a
    product, or PMEE's |c| or other parameters too small."""


class NotOrthogonalError(QuantumStateError):
    """States that must be mutually orthogonal overlap: those of
    `spectral_mix` or `complete_ppp`, or the two vectors of a qubit basis."""


class InvalidDensityError(QuantumStateError):
    """A matrix passed as a density matrix is not 4x4 or fails the
    finiteness, Hermiticity, trace or positivity checks."""


class UnknownTypeError(QuantumStateError):
    """The requested set type, case or variant is unknown or cannot exist."""


class InvalidArgumentError(QuantumStateError):
    """An argument outside its allowed values, or of the wrong count or
    shape: a state without 4 amplitudes, a qubit without 2, a qubit basis
    not of 2 vectors, a set of other than 1..4 states, a `complete_ppp`
    triple not of 3 product states, unequal numbers of states and weights,
    weights not positive or not summing to 1, gamma outside (0, 1), PMEE's
    |c| at or above 1/sqrt(2), a sample count below 1, a sign not +-1."""


class RejectionLimitError(QuantumStateError):
    """A rejection sampler discarded its maximum number of draws in a row
    without producing an admissible parameter set."""


def refuse_pppe(set_type: str) -> None:
    """Raise :class:`UnknownTypeError` when ``set_type`` (without case or
    surrounding blanks) asks for a PPPE basis, which cannot exist.  It needs
    no family table, so the command line checks it before the samplers
    load."""
    if set_type.strip().lower() == "pppe":
        raise UnknownTypeError(
            "no PPPE basis exists: completing three orthonormal product "
            "states always yields a fourth product state")
