"""Seeded random samplers and the table of constructible families.

`FAMILIES` lists the 18 constructible (type, case, variant) families once:
each entry holds the constructor, whose signature is the family's parameter
schema, and a draw of its arguments.  `sample` and the CLI's ``construct``
verb both select from it.

`sample` draws constructor parameters uniformly on each constructor's
constraint manifold from a splitmix64 stream.  The integer stream is
exactly reproducible from the seed, in any language.  Every family draws
and constructs on Python numbers alone, so no `sample` call imports numpy
and the sampled sets depend on CPython's float arithmetic only.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, NamedTuple

from .bases import (
    _mmee_conditions,
    construct_mmee_diagonal,
    construct_mmee_nondiagonal,
    construct_pm,
    construct_pmee,
    construct_pppp,
    construct_ppee_case1,
    construct_ppee_case2,
    construct_ppee_case3,
)
from .errors import (InvalidArgumentError, RejectionLimitError, UnknownTypeError,
                     refuse_pppe)
from .pairs import (
    A_SIDE,
    B_SIDE,
    _ee_conditions,
    construct_ee_diagonal,
    construct_ee_nondiagonal,
    construct_ep,
    construct_pe_diagonal,
    construct_pe_nondiagonal,
    construct_pp,
)
from .scalar import _qubit_nrm2, _total, _unit
from .triples import (
    construct_ppe_case1,
    construct_ppe_case2,
    construct_ppe_case3,
    construct_ppp,
)

_MASK64 = (1 << 64) - 1
_TWO_NEG53 = 2.0 ** -53


class SplitMix64:
    """splitmix64: a published 64-bit mixing generator.

    Chosen so any implementation, in any language, reproduces the exact
    64-bit stream from the seed alone.
    """

    __slots__ = ("state", "_spare_gauss")

    def __init__(self, seed: int):
        self.state = _integer(seed, "seed") & _MASK64
        self._spare_gauss = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _TWO_NEG53

    def angle(self) -> float:
        """Uniform angle in [0, 2 pi)."""
        return 2.0 * math.pi * self.uniform()

    def sign(self) -> int:
        return 1 if (self.next_u64() & 1) == 0 else -1

    def gauss(self) -> float:
        """Standard normal deviate (Box-Muller, pairwise)."""
        if self._spare_gauss is not None:
            g = self._spare_gauss
            self._spare_gauss = None
            return g
        r = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        t = self.angle()
        self._spare_gauss = r * math.sin(t)
        return r * math.cos(t)

    def simplex(self, k: int, floor: float = 0.01):
        """Uniform point on the k-simplex with every coordinate >= floor.

        Rejection keeps the draw uniform on the restricted region; the
        floor gives the 1e-12-tolerance test suites numerical headroom.
        Raises `RejectionLimitError` after ``_MAX_DRAWS`` rejected draws in
        a row, as for an unreachable floor (``k * floor > 1``).
        """
        for _ in range(_MAX_DRAWS):
            e = [-math.log(1.0 - self.uniform()) for _ in range(k)]
            total = _total(e)
            w = [x / total for x in e]
            if min(w) >= floor:
                return w
        raise _rejected(f"simplex({k}, {floor!r})")


def random_qubit(rng: SplitMix64) -> tuple:
    """Haar-random unit single-qubit vector, as a 2-tuple of complex."""
    v = (complex(rng.gauss(), rng.gauss()), complex(rng.gauss(), rng.gauss()))
    return _unit(v, _qubit_nrm2(*v), True, "drawn qubit is zero", "qubit")


def random_qubit_basis(rng: SplitMix64) -> tuple:
    """Haar-random orthonormal single-qubit basis, as two 2-tuples."""
    v0 = random_qubit(rng)
    phase = complex(math.cos(t := rng.angle()), math.sin(t))
    return v0, (-v0[1].conjugate() * phase, v0[0].conjugate() * phase)


class SampleSpec(NamedTuple):
    """Request for seeded random sets of one constructible type.

    ``set_type`` is the pattern name (``"pp"``, ``"pe"``, ..., ``"mmee"``),
    ``case_id`` selects a PPE/PPEE case, ``variant`` a diagonal/nondiagonal
    or a-side/b-side sub-family where the type has one.
    """

    set_type: str
    case_id: int | None = None
    variant: str | None = None
    seed: int = 0
    count: int = 1


# Draws a rejection sampler may discard in a row before it gives up.  The
# ee-nondiagonal and mmee-nondiagonal loops reject about 1 % and 4 % of
# draws, and never more than 3 in a row over 500 sets at each of 200 seeds;
# the simplex floor of 0.01 rejects about 2 % and 6 % of 2- and 3-weight
# draws.  So the cap only stops a stream that can no longer produce a set.
_MAX_DRAWS = 1000


def _rejected(family: str) -> RejectionLimitError:
    return RejectionLimitError(
        f"{family} sampler rejected {_MAX_DRAWS} draws in a row")


def _complex_from(rng: SplitMix64, mag2: float) -> complex:
    t = rng.angle()
    r = math.sqrt(mag2)
    return complex(r * math.cos(t), r * math.sin(t))


def _draw_side(rng: SplitMix64) -> str:
    return A_SIDE if rng.sign() > 0 else B_SIDE


def _draw_gamma(rng: SplitMix64) -> float:
    return 1e-3 + (1.0 - 2e-3) * rng.uniform()


def _draw_unit(rng: SplitMix64, k: int = 2) -> tuple:
    """k complex numbers whose squared magnitudes lie on the k-simplex."""
    return tuple(_complex_from(rng, w) for w in rng.simplex(k))


def _draw_two_units(rng: SplitMix64) -> tuple:
    return _draw_unit(rng) + _draw_unit(rng)


def _draw_side_basis(rng: SplitMix64) -> tuple:
    return _draw_side(rng), random_qubit_basis(rng)


def _draw_ee_diagonal(rng: SplitMix64) -> tuple:
    gamma = _draw_gamma(rng)
    w = rng.simplex(2)
    a = _complex_from(rng, w[0] * (1.0 - gamma))
    c = _complex_from(rng, w[1] * (1.0 - gamma))
    # With a != 0 the diagonality condition pins b, and normalization plus
    # entanglement then hold automatically.
    phase_a2 = (a / abs(a)) ** 2
    b = math.sqrt(gamma / (1.0 - gamma)) * phase_a2 * c.conjugate()
    return gamma, a, b, c


def _draw_ee_nondiagonal(rng: SplitMix64) -> tuple:
    for _ in range(_MAX_DRAWS):
        gamma = _draw_gamma(rng)
        w = rng.simplex(3)
        a = _complex_from(rng, w[0] * (1.0 - gamma))
        b = _complex_from(rng, w[1])
        c = _complex_from(rng, w[2])
        entangled, diagonal = _ee_conditions(gamma, a, b, c)
        if abs(entangled) < 1e-2 or abs(diagonal) < 1e-2:
            continue
        return gamma, a, b, c
    raise _rejected("ee-nondiagonal")


def _draw_pmee(rng: SplitMix64) -> tuple:
    theta = rng.angle()
    theta_prime = rng.angle()
    theta_dprime = rng.angle()
    mag2 = 0.005 + 0.49 * rng.uniform()
    return theta, theta_prime, theta_dprime, _complex_from(rng, mag2)


def _draw_mmee_diagonal(rng: SplitMix64) -> tuple:
    theta = rng.angle()
    theta_prime = rng.angle()
    w = rng.simplex(2)
    phi_a = rng.angle()
    ra = math.sqrt(0.5 * w[0])
    rb = math.sqrt(0.5 * w[1])
    # The diagonality scalar vanishes exactly when the phase of
    # e^{i Delta/2} a^* b is +-pi/2.
    phi_b = phi_a - 0.5 * (theta_prime - theta) + rng.sign() * 0.5 * math.pi
    a = complex(ra * math.cos(phi_a), ra * math.sin(phi_a))
    b = complex(rb * math.cos(phi_b), rb * math.sin(phi_b))
    return theta, theta_prime, a, b


def _draw_mmee_nondiagonal(rng: SplitMix64) -> tuple:
    for _ in range(_MAX_DRAWS):
        theta = rng.angle()
        theta_prime = rng.angle()
        w = rng.simplex(2)
        a = _complex_from(rng, 0.5 * w[0])
        b = _complex_from(rng, 0.5 * w[1])
        _, big_e, d_real = _mmee_conditions(theta, theta_prime, a, b)
        if not 1e-2 <= abs(d_real) <= 0.49:
            continue
        if big_e < 1e-2:
            continue
        return theta, theta_prime, a, b
    raise _rejected("mmee-nondiagonal")


class Family(NamedTuple):
    """One constructible family: its constructor, whose signature is the
    family's parameter schema, and ``draw``, which returns seeded
    constructor arguments from a `SplitMix64`."""

    construct: Callable
    draw: Callable


#: Every constructible family by (type, case, variant), in a fixed order.
#: `sample` and the CLI's ``construct`` both select from this table.
FAMILIES = {
    ("pp", None, None): Family(
        construct_pp, lambda rng: (_draw_side(rng), random_qubit(rng))),
    ("pe", None, "diagonal"): Family(construct_pe_diagonal, _draw_unit),
    ("pe", None, "nondiagonal"): Family(
        construct_pe_nondiagonal, lambda rng: _draw_unit(rng, 3)),
    ("ep", None, None): Family(
        construct_ep,
        lambda rng: (_draw_gamma(rng), *_draw_unit(rng), rng.sign())),
    ("ee", None, "diagonal"): Family(construct_ee_diagonal, _draw_ee_diagonal),
    ("ee", None, "nondiagonal"): Family(
        construct_ee_nondiagonal, _draw_ee_nondiagonal),
    ("ppp", None, None): Family(construct_ppp, _draw_side_basis),
    ("ppe", 1, None): Family(construct_ppe_case1, _draw_unit),
    ("ppe", 2, None): Family(construct_ppe_case2, _draw_two_units),
    ("ppe", 3, None): Family(construct_ppe_case3, _draw_two_units),
    ("pppp", None, None): Family(construct_pppp, _draw_side_basis),
    ("ppee", 1, None): Family(construct_ppee_case1, _draw_unit),
    ("ppee", 2, None): Family(construct_ppee_case2, _draw_two_units),
    ("ppee", 3, None): Family(construct_ppee_case3, _draw_two_units),
    ("pm", None, None): Family(
        construct_pm, lambda rng: (rng.angle(), rng.angle())),
    ("pmee", None, None): Family(construct_pmee, _draw_pmee),
    ("mmee", None, "diagonal"): Family(
        construct_mmee_diagonal, _draw_mmee_diagonal),
    ("mmee", None, "nondiagonal"): Family(
        construct_mmee_nondiagonal, _draw_mmee_nondiagonal),
}


def family(set_type: str, case_id=None, variant=None) -> Family:
    """The `FAMILIES` entry a (type, case, variant) request selects.

    Type and variant are matched without case or surrounding blanks, and a
    case or variant the type does not use is ignored.  Raises
    :class:`UnknownTypeError` for any other request; in particular a PPPE
    basis cannot exist, so asking for one is an error.
    """
    if not isinstance(set_type, str) or not isinstance(variant or "", str):
        raise UnknownTypeError("type and variant must be strings, got "
                               f"{set_type!r} and {variant!r}")
    refuse_pppe(set_type)
    t = set_type.strip().lower()
    v = variant.strip().lower() if variant else None
    try:  # the case lookup last, as an unhashable case_id raises
        for key in ((t, None, None), (t, None, v), (t, case_id, None)):
            if key in FAMILIES:
                return FAMILIES[key]
    except TypeError:
        pass
    keys = [key for key in FAMILIES if key[0] == t]
    if not keys:
        raise UnknownTypeError(f"unknown set type {set_type!r}")
    if keys[0][1] is not None:
        raise UnknownTypeError(
            f"type {t!r} needs case_id in {tuple(k[1] for k in keys)}, "
            f"got {case_id!r}")
    raise UnknownTypeError(
        f"type {t!r} needs variant in {sorted(k[2] for k in keys)}, "
        f"got {variant!r}")


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(
            f"{name} must be an integer, got {value!r}") from None


def _stream(spec: SampleSpec) -> Iterator:
    """`sample`'s sets as an iterator that draws and constructs each set
    when it is asked for the next one.  The request is checked, and raises
    as `sample` documents, before this returns."""
    try:
        set_type, case_id, variant = spec.set_type, spec.case_id, spec.variant
        count, seed = spec.count, spec.seed
    except AttributeError:
        raise InvalidArgumentError(f"need a SampleSpec, got {spec!r}") from None
    f = family(set_type, case_id, variant)
    if _integer(count, "count") < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count!r}")
    rng = SplitMix64(seed)
    return (f.construct(*f.draw(rng)) for _ in range(count))


def sample(spec: SampleSpec) -> list:
    """Draw ``spec.count`` constructed sets, deterministically from the seed.

    Raises :class:`InvalidArgumentError` for a ``spec`` without the
    `SampleSpec` fields, then :class:`UnknownTypeError` for a request
    `family` refuses, and then :class:`InvalidArgumentError` for a count
    that is not an integer or is below 1, or a seed that is not an integer.
    """
    return list(_stream(spec))
