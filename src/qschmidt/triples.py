"""Constructors for orthonormal sets of three two-qubit states.

Two patterns admit closed forms: PPP (all product) and PPE (two product
members plus one entangled member).  The PPE pattern splits into three
cases according to the shape of the second product member:

* case 1: second member |11>, third diagonal c|01> + d|10>
* case 2: second member a|01> + b|11>, third c(b^*|01> - a^*|11>) + d|10>
* case 3: second member a|10> + b|11>, third c|01> + d(b^*|10> - a^*|11>)

Cases 2 and 3 produce a non-diagonal third member whenever every parameter
is nonzero, and refuse parameters whose third member is a product
(`pairs._entangled`, `ZeroParameterError`) or on the diagonal branch
(`schmidt._promised_branch`, `DiagonalError`).  Each constructor returns an
`OrthoSet` of three states whose ``parts`` (and ``schmidt``) hold the third
member's decomposition, made by `pairs._ortho_set` with `schmidt._parts`.
"""

from __future__ import annotations

from .errors import InvalidArgumentError, NotOrthogonalError
from .pairs import (A_SIDE, OrthoSet, _check_variant, _diagonal_pair,
                    _entangled, _ortho_set, _require_nonzero, _rescale)
from .scalar import VERIFY_TOL, _KET00, _KET11, _length, _unit_qubit
from .schmidt import _promised_branch


def orthonormal_qubit_basis(basis):
    """Rescale each of two nonzero single-qubit vectors to unit norm, check
    that they are orthogonal to within `VERIFY_TOL` and return them as
    2-tuples of Python complex numbers."""
    if _length(basis, "basis") != 2:
        raise InvalidArgumentError("a qubit basis needs exactly 2 vectors")
    v0 = _unit_qubit(basis[0], "basis[0]")
    v1 = _unit_qubit(basis[1], "basis[1]")
    (a0, a1), (b0, b1) = v0, v1
    overlap = abs(a0.conjugate() * b0 + a1.conjugate() * b1)
    if overlap > VERIFY_TOL:
        raise NotOrthogonalError(
            f"basis vectors overlap by {overlap!r} (> {VERIFY_TOL!r})")
    return v0, v1


def construct_ppp(variant: str, basis) -> OrthoSet:
    """Three orthonormal product states from |00> and a qubit basis.

    The a-side variant is (|00>, basis0 (x) |1>, basis1 (x) |1>); the b-side
    variant mirrors it as (|00>, |1> (x) basis0, |1> (x) basis1).
    """
    _check_variant(variant)
    v0, v1 = orthonormal_qubit_basis(basis)
    if variant == A_SIDE:
        second = (0.0j, v0[0], 0.0j, v0[1])
        third = (0.0j, v1[0], 0.0j, v1[1])
    else:
        second = (0.0j, 0.0j, v0[0], v0[1])
        third = (0.0j, 0.0j, v1[0], v1[1])
    return _ortho_set((_KET00, second, third), "PPP", {"basis": [v0, v1]},
                      variant=variant)


def construct_ppe_case1(c, d) -> OrthoSet:
    """(|00>, |11>, c|01> + d|10>) with both parameters nonzero.

    The third member is diagonal; its Schmidt coefficients are (|c|, |d|)
    sorted in descending order.
    """
    c, d, third = _diagonal_pair(c, d, "cd", "ppe-case1",
                                 "an entangled third member")
    return _ortho_set((_KET00, _KET11, third), "PPE", {"c": c, "d": d},
                      case_id=1)


def _ppe_triple(case_id, a, b, c, d, what) -> OrthoSet:
    """The case-2 or case-3 PPE triple of `construct_ppe_case2`/`3`, whose
    errors name the family ``what`` (a PPE case or the PPEE case built on
    it).  The pairs (a, b) and (c, d) must be nonzero and are each rescaled
    to unit norm."""
    a = _require_nonzero(a, "a")
    b = _require_nonzero(b, "b")
    c = _require_nonzero(c, "c")
    d = _require_nonzero(d, "d")
    a, b = _rescale((a, b), (1.0, 1.0), 1.0, what + " (a, b)")
    c, d = _rescale((c, d), (1.0, 1.0), 1.0, what + " (c, d)")
    if case_id == 2:
        second = (0.0j, a, 0.0j, b)
        third = (0.0j, c * b.conjugate(), d, -c * a.conjugate())
    else:
        second = (0.0j, 0.0j, a, b)
        third = (0.0j, c, d * b.conjugate(), -d * a.conjugate())
    _entangled(third, "an entangled third member")
    _promised_branch(third, False, "the third member")
    return _ortho_set((_KET00, second, third), "PPE",
                      {"a": a, "b": b, "c": c, "d": d}, case_id=case_id)


def construct_ppe_case2(a, b, c, d) -> OrthoSet:
    """PPE set whose second member is a|01> + b|11>.

    The third member is c(b^*|01> - a^*|11>) + d|10>, non-diagonal, with
    Schmidt coefficients sqrt((1 +- sqrt(1 - 4|bcd|^2)) / 2).  The pairs
    (a, b) and (c, d) must be nonzero and are each rescaled to unit norm.
    """
    return _ppe_triple(2, a, b, c, d, "ppe-case2")


def construct_ppe_case3(a, b, c, d) -> OrthoSet:
    """PPE set whose second member is a|10> + b|11> (a product of |1> with a
    B-side vector).

    The third member is c|01> + d(b^*|10> - a^*|11>), non-diagonal, with the
    same coefficient formula as case 2.
    """
    return _ppe_triple(3, a, b, c, d, "ppe-case3")
