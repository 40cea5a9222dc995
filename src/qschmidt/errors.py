"""Domain errors raised at the package's public boundaries."""

from __future__ import annotations


class QuantumStateError(ValueError):
    """Base class for every domain error this package raises."""


class NotFiniteError(QuantumStateError):
    """An amplitude or parameter is NaN or infinite."""


class ZeroVectorError(QuantumStateError):
    """All amplitudes of a would-be state vector are zero."""


class NotNormalizedError(QuantumStateError):
    """A vector that must be unit norm is not, and normalization was not requested."""


class NotDiagonalError(QuantumStateError):
    """The diagonal-branch decomposition was applied to a state whose
    coefficient-matrix columns are not orthogonal."""


class DiagonalError(QuantumStateError):
    """The non-diagonal-branch decomposition was applied to a state with
    orthogonal coefficient-matrix columns; its internal vectors vanish there."""


class ZeroParameterError(QuantumStateError):
    """A constructor parameter that must be nonzero is zero (or too small to
    produce a member of the promised kind)."""


class GammaOutOfRangeError(QuantumStateError):
    """The Schmidt-weight parameter gamma lies outside the open interval (0, 1)."""


class COutOfRangeError(QuantumStateError):
    """The complex parameter's magnitude lies outside its required open interval."""


class DegenerateParametersError(QuantumStateError):
    """Parameters collapse an intermediate vector to zero, leaving a direction
    undefined."""


class ConditionViolatedError(QuantumStateError):
    """One of a constructor's admissibility conditions fails.

    ``which`` names the failed condition: ``"entangled"`` or ``"diagonal"``.
    """

    def __init__(self, which: str, message: str):
        super().__init__(message)
        self.which = which


class AccidentallyDiagonalError(QuantumStateError):
    """Parameters meant for a non-diagonal constructor satisfy the diagonal
    condition; the diagonal constructor applies instead."""


class NotOrthonormalBasisError(QuantumStateError):
    """The supplied single-qubit vectors do not form an orthonormal basis."""


class NotPPPError(QuantumStateError):
    """The supplied triple is not a set of three orthonormal product states."""


class NotOrthogonalError(QuantumStateError):
    """States that must be mutually orthogonal are not."""


class BadWeightsError(QuantumStateError):
    """Mixing weights must be strictly positive and sum to one."""


class InvalidDensityError(QuantumStateError):
    """A matrix passed as a density matrix is not 4x4 or fails the
    finiteness, Hermiticity, trace or positivity checks."""


class UnknownTypeError(QuantumStateError):
    """The requested set type, case or variant is unknown or cannot exist."""


class InvalidArgumentError(QuantumStateError):
    """An argument lies outside its allowed values: a state without 4
    amplitudes, a set of other than 1..4 states, a sample count below 1, or
    a sign other than +1 or -1."""


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
