"""Tolerances and amplitude handling on Python numbers.

Amplitudes are parsed, checked and normalized here as tuples of Python
complex numbers, and the set constructors build their members from the
product-basis kets, `_tensor` and `_concurrence` below, so the command
line's verbs, every ``construct`` and ``sample`` call included, run without
importing numpy.  The normalization rounds as numpy divides a complex
array by a real scalar, so the tuples hold the bits the array constructors
in `core` return.  Every unit qubit, given to a constructor or sampled,
comes from `_unit_qubit`, the route `core.make_qubit` takes.
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite

from .errors import (InvalidArgumentError, NotFiniteError, NotNormalizedError,
                     ZeroVectorError)

#: Classification tolerance: product/entangled/maximal labels, diagonality
#: dispatch, and constructor admissibility checks.  Fixed: no call takes a
#: tolerance of its own.
DEFAULT_TOL = 1e-10

#: Verification tolerance: orthonormality, reconstruction, cross-checks.
VERIFY_TOL = 1e-12

# Below this squared norm a vector is treated as exactly zero.
_ZERO_FLOOR = 1e-300

_MODULES = sys.modules

# The product basis |00>, |01>, |10>, |11> as amplitude tuples.
_KET00 = (1.0 + 0.0j, 0.0j, 0.0j, 0.0j)
_KET01 = (0.0j, 1.0 + 0.0j, 0.0j, 0.0j)
_KET10 = (0.0j, 0.0j, 1.0 + 0.0j, 0.0j)
_KET11 = (0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def _number(kind, value, name: str):
    """``kind(value)`` for ``kind`` float or complex.  An integer too large
    for a float, and a value that is not a number, raise `NotFiniteError`
    instead of `OverflowError`, `TypeError` or `ValueError`; every scalar
    input conversion goes through here."""
    try:
        return kind(value)
    except OverflowError:
        must = "finite, got an integer too large for a float"
    except (TypeError, ValueError):
        must = f"a number, got {value!r}"
    raise NotFiniteError(f"{name} must be {must}")


def _total(values) -> float:
    """``values`` added in order from 0.0, as ``sum`` adds floats up to
    Python 3.11; from 3.12 on ``sum`` compensates, which moves pinned bits."""
    total = 0.0
    for x in values:
        total += x
    return total


def _is_bool(x) -> bool:
    """True for a Python or numpy bool.  numpy is looked up, not imported:
    a numpy bool cannot exist before numpy is loaded."""
    numpy = _MODULES.get("numpy")
    return isinstance(x, bool) or (numpy is not None
                                   and isinstance(x, numpy.bool_))


def _length(seq, name: str) -> int:
    """``len(seq)``; an object with no length raises `InvalidArgumentError`
    instead of `TypeError`."""
    try:
        return len(seq)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be a sequence, got {seq!r}") \
            from None


def _checked_complex(value, name: str, kind=complex):
    """``value`` as a finite ``kind``, complex or float."""
    z = _number(kind, value, name)
    if not isfinite(z):
        raise NotFiniteError(f"{name} must be finite, got {value!r}")
    return z


def _checked_norm(nrm2: float, zero_message: str) -> float:
    """The norm whose square of finite amplitudes is ``nrm2``.  Raises
    `ZeroVectorError` below the zero floor and `NotFiniteError` when the
    square overflowed, which would otherwise scale the vector to zero."""
    if nrm2 <= _ZERO_FLOOR:
        raise ZeroVectorError(zero_message)
    if nrm2 == math.inf:
        raise NotFiniteError("squared norm overflows: amplitudes too large")
    return math.sqrt(nrm2)


def _unit(c: tuple, nrm2: float, normalize: bool, zero_message: str,
          what: str) -> tuple:
    """The finite complex amplitudes ``c`` divided by their norm, whose
    square is ``nrm2``.

    Without ``normalize`` a norm off 1 by more than 1e-10 raises
    `NotNormalizedError`.  Each quotient is rounded as numpy's complex
    division by ``norm + 0j`` rounds it, signed zeros included, so
    ``np.array(_unit(...))`` equals ``np.array(c) / norm`` bit for bit.
    """
    nrm = _checked_norm(nrm2, zero_message)
    if not normalize and abs(nrm - 1.0) > 1e-10:
        raise NotNormalizedError(
            f"{what} norm is {nrm!r}; pass normalize=True to rescale")
    s = 1.0 / nrm
    return tuple(complex((z.real + z.imag * 0.0) * s, (z.imag - z.real * 0.0) * s)
                 for z in c)


def unit_state(c00, c01, c10, c11, normalize: bool = False) -> tuple:
    """The four amplitudes as a unit-norm tuple; see `core.make_state`."""
    c = (_checked_complex(c00, "c00"), _checked_complex(c01, "c01"),
         _checked_complex(c10, "c10"), _checked_complex(c11, "c11"))
    return _unit(c, _total(z.real * z.real + z.imag * z.imag for z in c),
                 normalize, "all four amplitudes are zero", "state")


def amplitudes(state) -> tuple[complex, complex, complex, complex]:
    """Return the four amplitudes of ``state`` as finite Python complex numbers.

    A 1-D ndarray of four entries is read with one ``tolist`` call (an
    ndarray can only exist once numpy is loaded).  Any other input, and the
    list of an array whose entries fail to convert or are not all finite,
    takes the per-element path, so the errors and their messages are the
    same for every input type.
    """
    numpy = _MODULES.get("numpy")
    if numpy is not None and type(state) is numpy.ndarray \
            and state.shape == (4,):
        listed = state.dtype.char == "D"  # complex128 lists Python complex
        state = state.tolist()
        try:
            c00, c01, c10, c11 = state if listed else map(complex, state)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isfinite(c00) and isfinite(c01) and isfinite(c10) \
                    and isfinite(c11):
                return c00, c01, c10, c11
    try:
        n = len(state)
    except TypeError:  # not a sequence
        raise InvalidArgumentError("a two-qubit state is a sequence of 4 "
                                   f"amplitudes, got {state!r}") from None
    if n != 4:
        raise InvalidArgumentError(
            f"a two-qubit state has 4 amplitudes, got {n}")
    c00 = _checked_complex(state[0], "c00")
    c01 = _checked_complex(state[1], "c01")
    c10 = _checked_complex(state[2], "c10")
    c11 = _checked_complex(state[3], "c11")
    return c00, c01, c10, c11


def _concurrence(c00, c01, c10, c11) -> float:
    return 2.0 * abs(c00 * c11 - c01 * c10)


def concurrence(state) -> float:
    """Concurrence 2|c00*c11 - c01*c10| of the state s as given: for unit s,
    0 when product and 1 when maximally entangled; |s|^2 times that for
    other norms (`make_state`, ``decompose --strict``, `classify` check it)."""
    return _concurrence(*amplitudes(state))


def _qubit(v, name: str, entries=None) -> tuple:
    """``(v0, v1, |v|^2)`` of a qubit from outside, a sequence of 2 numbers."""
    n = _length(v, name)
    if n != 2:
        raise InvalidArgumentError(
            f"{name} is a single-qubit vector of 2 amplitudes, got {n}")
    e0, e1 = entries or (name + "[0]", name + "[1]")
    v0 = _checked_complex(v[0], e0)
    v1 = _checked_complex(v[1], e1)
    return (v0, v1, v0.real * v0.real + v0.imag * v0.imag
            + v1.real * v1.real + v1.imag * v1.imag)


def _unit_qubit(v, name: str) -> tuple:
    """The qubit ``v`` from outside, scaled to unit norm as `make_qubit` is."""
    v0, v1, nrm2 = _qubit(v, name)
    return _unit((v0, v1), nrm2, True, f"{name} is the zero vector", name)


def _check_unit(nrm: float, what: str) -> None:
    if abs(nrm - 1.0) > 1e-10:
        raise NotNormalizedError(f"{what} has norm {nrm!r}")


def _tensor(a, b) -> tuple:
    """Tensor product c_jk = a_j * b_k of two unit single-qubit vectors, as
    an amplitude tuple; see `core.tensor`."""
    a0, a1, na2 = _qubit(a, "a", entries=("a0", "a1"))
    b0, b1, nb2 = _qubit(b, "b", entries=("b0", "b1"))
    _check_unit(math.sqrt(na2), "factor a")
    _check_unit(math.sqrt(nb2), "factor b")
    return (a0 * b0, a0 * b1, a1 * b0, a1 * b1)


def _norm(a) -> float:
    """Euclidean norm of an amplitude 4-tuple, squares summed in order."""
    c00, c01, c10, c11 = a
    return math.sqrt((c00.real * c00.real + c00.imag * c00.imag)
                     + (c01.real * c01.real + c01.imag * c01.imag)
                     + (c10.real * c10.real + c10.imag * c10.imag)
                     + (c11.real * c11.real + c11.imag * c11.imag))


def _unit_members(states, limit: float = 1e-10) -> list:
    """Each state read by `amplitudes`, its norm checked to within ``limit``."""
    amps = []
    for i, s in enumerate(states):
        a = amplitudes(s)
        nrm = _norm(a)
        if abs(nrm - 1.0) > limit:
            raise NotNormalizedError(f"states[{i}] has norm {nrm!r}")
        amps.append(a)
    return amps


def _max_overlap(amps) -> tuple:
    """``(overlap, i, j)``: the largest |<amps[i]|amps[j]>|, i < j, and the
    first pair that reaches it; ``(0.0, 0, 0)`` when there is no pair.  Each
    row is conjugated once, and each inner product summed from its first
    term to its last."""
    worst, wi, wj = 0.0, 0, 0
    n = len(amps)
    for i, (a0, a1, a2, a3) in enumerate(amps[:-1]):
        a0, a1, a2, a3 = (a0.conjugate(), a1.conjugate(), a2.conjugate(),
                          a3.conjugate())
        for j in range(i + 1, n):
            b0, b1, b2, b3 = amps[j]
            ov = abs(a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3)
            if ov > worst:
                worst, wi, wj = ov, i, j
    return worst, wi, wj


class LazyNumpy:
    """Stands for numpy in a module's globals: the first attribute read
    imports numpy and rebinds the module's ``np`` to it, so a module can
    import without numpy and later calls pay nothing extra."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
