"""Constructors for orthogonal pairs of two-qubit states, `OrthoSet`, the
result type of every set constructor, and `_ortho_set`, which every set
constructor builds its result with.

Each constructor fixes the first member in a canonical form and produces the
general second member orthogonal to it; `_ortho_set` decomposes the second
member with `schmidt._parts`.  A guard that promises an entangled member
tests the member it built with `_entangled`, one that promises a diagonal or
a non-diagonal member tests it with `schmidt._promised_branch`, and EP and
EE read gamma with `_gamma`.  Pair patterns name the members in order: P
product, E entangled (M maximally entangled).  Arbitrary pairs of a pattern
follow by applying the same local unitaries to both members, which leaves
the pattern unchanged.

The constructors here, in `triples` and in `bases` compute on Python
complex numbers and return members and Schmidt data as tuples, so building
and serializing a set imports no numpy; an `OrthoSet` builds arrays only
when ``states`` or ``schmidt`` is read.
"""

from __future__ import annotations

import cmath
import math

from .errors import (InvalidArgumentError, NotFiniteError, UnknownTypeError,
                     ZeroParameterError)
from .scalar import (DEFAULT_TOL, _KET00, LazyNumpy, _checked_complex,
                     _checked_norm, _concurrence, _is_bool, _number, _qubit,
                     _tensor, _total, _unit, _unit_qubit)
from .schmidt import _parts, _promised_branch, _wrap

np = LazyNumpy(globals())

A_SIDE = "a-side"
B_SIDE = "b-side"


class OrthoSet:
    """Two, three or four mutually orthonormal states, as a pair, triple or
    basis constructor builds them.

    ``members`` holds the states in order, each a 4-tuple of Python complex
    amplitudes.  Constructors build members only from numbers they have
    checked (finite, nonzero or rescaled as each family requires) and pass
    them to `schmidt._parts` as they are, not through `amplitudes` again.
    ``parts`` holds the Schmidt decompositions of the carried members (the
    second member of a pair, the third of a triple, all four of a basis)
    as ``(coeffs, basis_a, basis_b, degenerate)`` tuples (see
    `jsonio.schmidt_to_obj`); `_ortho_set` makes them.  ``params`` are the
    constructor's arguments as it used them, rescaled to the paper's
    normalization except in EP, PM and PMEE; ``case_id`` and ``variant``
    name the sub-family where the type has them.

    ``states`` (complex arrays) and ``schmidt`` (`SchmidtDecomposition`
    records) are the same data as arrays, built from the tuples on first
    read and kept: every set owns its arrays, so writing into one changes
    no other set.
    """

    __slots__ = ("members", "type_label", "parts", "params", "case_id",
                 "variant", "_states", "_schmidt")

    def __init__(self, members: tuple, type_label: str, parts: tuple,
                 params: dict, case_id: int | None, variant: str | None):
        self.members, self.type_label, self.parts = members, type_label, parts
        self.params, self.case_id, self.variant = params, case_id, variant
        self._states = self._schmidt = None

    @property
    def states(self) -> tuple:
        if self._states is None:
            self._states = tuple(np.array(m, complex) for m in self.members)
        return self._states

    @property
    def schmidt(self) -> tuple:
        if self._schmidt is None:
            self._schmidt = tuple(map(_wrap, self.parts))
        return self._schmidt


def _ortho_set(members, type_label, params, closed=(), *, case_id=None,
               variant=None) -> OrthoSet:
    """The `OrthoSet` every constructor returns: each carried member is
    decomposed by ``_parts(*member)``, except the trailing members whose
    closed-form decompositions the constructor hands in as ``closed``."""
    carried = members if len(members) == 4 else members[len(members) - 1:]
    parts = tuple(_parts(*m) for m in carried[:len(carried) - len(closed)])
    return OrthoSet(members, type_label, parts + closed, params, case_id,
                    variant)


def _require_nonzero(value: complex, name: str) -> complex:
    z = _checked_complex(value, name)
    if z == 0:
        raise ZeroParameterError(f"parameter {name} must be nonzero")
    return z


def _rescale(values, weights, target, what):
    """Scale a parameter group so that sum(w_i * |v_i|^2) equals ``target``.
    A sum that overflows raises `NotFiniteError` rather than scaling the
    group to zero."""
    total = _total(w * (v.real * v.real + v.imag * v.imag)
                   for v, w in zip(values, weights))
    _checked_norm(total, f"{what}: parameters are all zero")
    t = math.sqrt(target / total)
    return [v * t for v in values]


def _check_variant(variant: str) -> str:
    if variant not in (A_SIDE, B_SIDE):
        raise UnknownTypeError(f"variant must be '{A_SIDE}' or '{B_SIDE}', got {variant!r}")
    return variant


def _entangled(state: tuple, member: str) -> tuple:
    """``state``, refused with `ZeroParameterError` naming ``member`` where
    `classify` reads it as a product (concurrence <= `DEFAULT_TOL`)."""
    if _concurrence(*state) <= DEFAULT_TOL:
        raise ZeroParameterError(f"parameters too small to yield {member}")
    return state


def _diagonal_pair(x, y, names: str, what, member):
    """Nonzero ``x``, ``y`` scaled to unit norm, and entangled x|01> + y|10>."""
    x = _require_nonzero(x, names[0])
    y = _require_nonzero(y, names[1])
    x, y = _rescale((x, y), (1.0, 1.0), 1.0, what)
    return x, y, _entangled((0.0j, x, y, 0.0j), member)


def _gamma_first(gamma: float) -> tuple:
    """sqrt(gamma)|00> + sqrt(1-gamma)|11>, the first member of the EP and
    EE pairs (and, at gamma = 1/2, of the MMEE bases)."""
    return (complex(math.sqrt(gamma)), 0.0j, 0.0j,
            complex(math.sqrt(1.0 - gamma)))


def _gamma(gamma) -> float:
    """``gamma`` checked to lie in (0, 1) with `_gamma_first(gamma)` entangled."""
    gamma = _number(float, gamma, "gamma")
    if not 0.0 < gamma < 1.0:
        error = (InvalidArgumentError if math.isfinite(gamma)
                 else NotFiniteError)
        raise error(f"gamma must lie in (0, 1), got {gamma!r}")
    if _concurrence(*_gamma_first(gamma)) <= DEFAULT_TOL:
        raise ZeroParameterError(f"gamma {gamma!r} is too small: "
                                 "the first member is a product state")
    return gamma


def construct_pp(variant: str, single) -> OrthoSet:
    """Product state orthogonal to |00>.

    ``variant`` chooses which subsystem carries the free single-qubit vector:
    ``"a-side"`` gives single (x) |1>, ``"b-side"`` gives |1> (x) single.
    """
    _check_variant(variant)
    u = _unit_qubit(single, "single")
    e1 = (0.0j, 1.0 + 0.0j)
    second = _tensor(u, e1) if variant == A_SIDE else _tensor(e1, u)
    return _ortho_set((_KET00, second), "PP", {"single": u}, variant=variant)


def construct_pe_diagonal(a, b) -> OrthoSet:
    """Entangled diagonal state a|01> + b|10| orthogonal to |00>.

    Both parameters must be nonzero; they are scaled so |a|^2 + |b|^2 = 1.
    The Schmidt coefficients are (|a|, |b|) sorted in descending order.
    """
    a, b, second = _diagonal_pair(a, b, "ab", "pe-diagonal",
                                  "an entangled member")
    return _ortho_set((_KET00, second), "PE", {"a": a, "b": b},
                      variant="diagonal")


def construct_pe_nondiagonal(a, b, c) -> OrthoSet:
    """Entangled non-diagonal state a|01> + b|10> + c|11> orthogonal to |00>.

    All three parameters must be nonzero (c = 0 belongs to the diagonal
    constructor); they are scaled to a unit state.  The Schmidt coefficients
    come out as sqrt((1 +- sqrt(1 - 4|ab|^2)) / 2).
    """
    a = _require_nonzero(a, "a")
    b = _require_nonzero(b, "b")
    c = _require_nonzero(c, "c")
    a, b, c = _rescale((a, b, c), (1.0, 1.0, 1.0), 1.0, "pe-nondiagonal")
    second = _entangled((0.0j, a, b, c), "an entangled member")
    _promised_branch(second, False, "the second member")
    return _ortho_set((_KET00, second), "PE", {"a": a, "b": b, "c": c},
                      variant="nondiagonal")


def construct_ep(gamma: float, a, b, sign: int = 1) -> OrthoSet:
    """Product state orthogonal to sqrt(gamma)|00> + sqrt(1-gamma)|11>.

    The second member is the tensor product of the two single-qubit factors

        ( sqrt(a),  -+ i (gamma/(1-gamma))^(1/4) sqrt(b) )  and
        ( +- i ((1-gamma)/gamma)^(1/4) sqrt(b),  sqrt(a) ),

    each normalized before the product is taken (the raw factors are not
    generally unit).  ``sign`` selects the +-i branch; complex square roots
    use the principal branch.  ``a`` and ``b`` may be any complex numbers
    that are not both zero.  gamma must exceed about 2.5e-21: below it the
    first member is a product state.
    """
    gamma = _gamma(gamma)
    a = _checked_complex(a, "a")
    b = _checked_complex(b, "b")
    if a == 0 and b == 0:
        raise ZeroParameterError("a and b must not both be zero")
    if _is_bool(sign) or sign not in (1, -1):
        raise InvalidArgumentError(f"sign must be +1 or -1, got {sign!r}")
    sign = 1 if sign == 1 else -1  # recorded as the int --params reads
    sa = cmath.sqrt(a)
    sb = cmath.sqrt(b)
    ratio_ab = (gamma / (1.0 - gamma)) ** 0.25
    ratio_ba = ((1.0 - gamma) / gamma) ** 0.25
    factor_a = (sa, -sign * 1j * ratio_ab * sb)
    factor_b = (sign * 1j * ratio_ba * sb, sa)
    na2 = _qubit(factor_a, "factor a")[2]
    nb2 = _qubit(factor_b, "factor b")[2]
    if math.sqrt(na2) <= 1e-150 or math.sqrt(nb2) <= 1e-150:
        raise ZeroParameterError("constructed factor has zero norm")
    second = _tensor(_unit(factor_a, na2, True, "", "factor a"),
                     _unit(factor_b, nb2, True, "", "factor b"))
    return _ortho_set((_gamma_first(gamma), second), "EP",
                      {"gamma": gamma, "a": a, "b": b, "sign": sign})


def _ee_prepare(gamma, a, b, c, what):
    """Checked, rescaled EE parameters and the entangled second member they
    build."""
    gamma = _gamma(gamma)
    a = _checked_complex(a, "a")
    b = _checked_complex(b, "b")
    c = _checked_complex(c, "c")
    weights = (1.0 / (1.0 - gamma), 1.0, 1.0)
    a, b, c = _rescale((a, b, c), weights, 1.0, what)
    second = _entangled((a, b, c, -math.sqrt(gamma / (1.0 - gamma)) * a),
                        "an entangled second member")
    return gamma, a, b, c, second


def construct_ee_diagonal(gamma: float, a, b, c) -> OrthoSet:
    """Entangled diagonal state orthogonal to sqrt(gamma)|00> + sqrt(1-gamma)|11>.

    The second member is a|00> + b|01> + c|10> - sqrt(gamma/(1-gamma)) a |11>;
    gamma must exceed about 2.5e-21, as in `construct_ep`.  Parameters are
    scaled so |a|^2/(1-gamma) + |b|^2 + |c|^2 = 1, and the member built must
    be entangled by `classify`'s rule and diagonal by `schmidt._branch`'s:

    * entanglement:  sqrt(gamma) a^2 + sqrt(1-gamma) b c != 0
    * diagonality:   sqrt(gamma) a c^* - sqrt(1-gamma) a^* b  = 0

    The Schmidt coefficients are sqrt(|a|^2 + |c|^2) and
    sqrt(|b|^2 + gamma/(1-gamma) |a|^2), sorted.
    """
    gamma, a, b, c, second = _ee_prepare(gamma, a, b, c, "ee-diagonal")
    _promised_branch(second, True, "the second member")
    return _ortho_set((_gamma_first(gamma), second), "EE",
                      {"gamma": gamma, "a": a, "b": b, "c": c},
                      variant="diagonal")


def construct_ee_nondiagonal(gamma: float, a, b, c) -> OrthoSet:
    """Entangled non-diagonal state orthogonal to the same first member.

    Same state form, gamma bound, normalization and entanglement check as
    the diagonal variant, but `schmidt._branch` must find the member
    non-diagonal, or the call raises `DiagonalError`.
    """
    gamma, a, b, c, second = _ee_prepare(gamma, a, b, c, "ee-nondiagonal")
    _promised_branch(second, False, "the second member")
    return _ortho_set((_gamma_first(gamma), second), "EE",
                      {"gamma": gamma, "a": a, "b": b, "c": c},
                      variant="nondiagonal")
