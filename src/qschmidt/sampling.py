"""Seeded random samplers.

`sample` draws constructor parameters uniformly on each constructor's
constraint manifold from a splitmix64 stream.  The integer stream is
exactly reproducible from the seed, in any language; the sampled sets are
bit-identical per seed on one machine and numpy build, not across
machines: the pp, ppp and pppp samplers normalize through
``np.linalg.norm``, whose BLAS rounding can depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import (
    construct_mmee_diagonal,
    construct_mmee_nondiagonal,
    construct_pm,
    construct_pmee,
    construct_pppp,
    construct_ppee_case1,
    construct_ppee_case2,
    construct_ppee_case3,
)
from .core import DEFAULT_TOL, check_tol
from .errors import InvalidArgumentError, RejectionLimitError, UnknownTypeError
from .pairs import (
    A_SIDE,
    B_SIDE,
    construct_ee_diagonal,
    construct_ee_nondiagonal,
    construct_ep,
    construct_pe_diagonal,
    construct_pe_nondiagonal,
    construct_pp,
)
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
        self.state = int(seed) & _MASK64
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
            total = sum(e)
            w = [x / total for x in e]
            if min(w) >= floor:
                return w
        raise _rejected(f"simplex({k}, {floor!r})")


def random_qubit(rng: SplitMix64) -> np.ndarray:
    """Haar-random unit single-qubit vector."""
    v = np.array([complex(rng.gauss(), rng.gauss()),
                  complex(rng.gauss(), rng.gauss())])
    return v / np.linalg.norm(v)


def random_qubit_basis(rng: SplitMix64):
    """Haar-random orthonormal single-qubit basis."""
    v0 = random_qubit(rng)
    phase = complex(math.cos(t := rng.angle()), math.sin(t))
    v1 = np.array([-v0[1].conjugate(), v0[0].conjugate()]) * phase
    return v0, v1


def random_state(rng: SplitMix64) -> np.ndarray:
    """Haar-random two-qubit pure state."""
    v = np.array([complex(rng.gauss(), rng.gauss()) for _ in range(4)])
    return v / np.linalg.norm(v)


def random_unitary(rng: SplitMix64) -> np.ndarray:
    """Haar-random 2x2 unitary."""
    col0 = random_qubit(rng)
    phase = complex(math.cos(t := rng.angle()), math.sin(t))
    return np.array([
        [col0[0], -phase * col0[1].conjugate()],
        [col0[1], phase * col0[0].conjugate()],
    ])


@dataclass
class SampleSpec:
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


def _sample_pp(rng, tol):
    variant = A_SIDE if rng.sign() > 0 else B_SIDE
    return construct_pp(variant, random_qubit(rng), tol=tol)


def _sample_pe_diagonal(rng, tol):
    w = rng.simplex(2)
    return construct_pe_diagonal(_complex_from(rng, w[0]),
                                 _complex_from(rng, w[1]), tol=tol)


def _sample_pe_nondiagonal(rng, tol):
    w = rng.simplex(3)
    return construct_pe_nondiagonal(_complex_from(rng, w[0]),
                                    _complex_from(rng, w[1]),
                                    _complex_from(rng, w[2]), tol=tol)


def _sample_ep(rng, tol):
    gamma = 1e-3 + (1.0 - 2e-3) * rng.uniform()
    w = rng.simplex(2)
    a = _complex_from(rng, w[0])
    b = _complex_from(rng, w[1])
    return construct_ep(gamma, a, b, rng.sign(), tol=tol)


def _sample_ee_diagonal(rng, tol):
    gamma = 1e-3 + (1.0 - 2e-3) * rng.uniform()
    w = rng.simplex(2)
    a = _complex_from(rng, w[0] * (1.0 - gamma))
    c = _complex_from(rng, w[1] * (1.0 - gamma))
    # With a != 0 the diagonality condition pins b, and normalization plus
    # entanglement then hold automatically.
    phase_a2 = (a / abs(a)) ** 2
    b = math.sqrt(gamma / (1.0 - gamma)) * phase_a2 * c.conjugate()
    return construct_ee_diagonal(gamma, a, b, c, tol=tol)


def _sample_ee_nondiagonal(rng, tol):
    for _ in range(_MAX_DRAWS):
        gamma = 1e-3 + (1.0 - 2e-3) * rng.uniform()
        w = rng.simplex(3)
        a = _complex_from(rng, w[0] * (1.0 - gamma))
        b = _complex_from(rng, w[1])
        c = _complex_from(rng, w[2])
        sg = math.sqrt(gamma)
        s1g = math.sqrt(1.0 - gamma)
        if abs(sg * a * a + s1g * b * c) < 1e-2:
            continue
        if abs(sg * a * c.conjugate() - s1g * a.conjugate() * b) < 1e-2:
            continue
        return construct_ee_nondiagonal(gamma, a, b, c, tol=tol)
    raise _rejected("ee-nondiagonal")


def _sample_ppp(rng, tol):
    variant = A_SIDE if rng.sign() > 0 else B_SIDE
    return construct_ppp(variant, random_qubit_basis(rng), tol=tol)


def _sample_ppe(rng, tol, case_id):
    if case_id == 1:
        w = rng.simplex(2)
        return construct_ppe_case1(_complex_from(rng, w[0]),
                                   _complex_from(rng, w[1]), tol=tol)
    w = rng.simplex(2)
    a = _complex_from(rng, w[0])
    b = _complex_from(rng, w[1])
    w = rng.simplex(2)
    c = _complex_from(rng, w[0])
    d = _complex_from(rng, w[1])
    ctor = construct_ppe_case2 if case_id == 2 else construct_ppe_case3
    return ctor(a, b, c, d, tol=tol)


def _sample_pppp(rng, tol):
    variant = A_SIDE if rng.sign() > 0 else B_SIDE
    return construct_pppp(variant, random_qubit_basis(rng), tol=tol)


def _sample_ppee(rng, tol, case_id):
    if case_id == 1:
        w = rng.simplex(2)
        return construct_ppee_case1(_complex_from(rng, w[0]),
                                    _complex_from(rng, w[1]), tol=tol)
    w = rng.simplex(2)
    a = _complex_from(rng, w[0])
    b = _complex_from(rng, w[1])
    w = rng.simplex(2)
    c = _complex_from(rng, w[0])
    d = _complex_from(rng, w[1])
    ctor = construct_ppee_case2 if case_id == 2 else construct_ppee_case3
    return ctor(a, b, c, d, tol=tol)


def _sample_pm(rng, tol):
    return construct_pm(rng.angle(), rng.angle(), tol=tol)


def _sample_pmee(rng, tol):
    theta = rng.angle()
    theta_prime = rng.angle()
    theta_dprime = rng.angle()
    mag2 = 0.005 + 0.49 * rng.uniform()
    return construct_pmee(theta, theta_prime, theta_dprime,
                          _complex_from(rng, mag2), tol=tol)


def _sample_mmee_diagonal(rng, tol):
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
    return construct_mmee_diagonal(theta, theta_prime, a, b, tol=tol)


def _sample_mmee_nondiagonal(rng, tol):
    for _ in range(_MAX_DRAWS):
        theta = rng.angle()
        theta_prime = rng.angle()
        w = rng.simplex(2)
        a = _complex_from(rng, 0.5 * w[0])
        b = _complex_from(rng, 0.5 * w[1])
        delta_half = 0.5 * (theta_prime - theta)
        ph = complex(math.cos(delta_half), math.sin(delta_half))
        d_real = 2.0 * (ph * a.conjugate() * b).real
        big_e = abs(a * a - ph * ph * b * b)
        if not 1e-2 <= abs(d_real) <= 0.49:
            continue
        if big_e < 1e-2:
            continue
        return construct_mmee_nondiagonal(theta, theta_prime, a, b, tol=tol)
    raise _rejected("mmee-nondiagonal")


def sample(spec: SampleSpec, tol: float = DEFAULT_TOL) -> list:
    """Draw ``spec.count`` constructed sets, deterministically from the seed.

    Raises :class:`UnknownTypeError` for unknown or impossible requests; in
    particular a PPPE basis cannot exist, so asking for one is an error.
    """
    tol = check_tol(tol)
    if spec.count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {spec.count!r}")
    set_type = spec.set_type.strip().lower()
    variant = spec.variant.strip().lower() if spec.variant else None
    case_id = spec.case_id

    if set_type == "pppe":
        raise UnknownTypeError(
            "no PPPE basis exists: completing three orthonormal product "
            "states always yields a fourth product state")

    def need_variant(options):
        if variant not in options:
            raise UnknownTypeError(
                f"type {set_type!r} needs variant in {sorted(options)}, "
                f"got {spec.variant!r}")

    def need_case():
        if case_id not in (1, 2, 3):
            raise UnknownTypeError(
                f"type {set_type!r} needs case_id in (1, 2, 3), got {case_id!r}")

    rng = SplitMix64(spec.seed)
    if set_type == "pp":
        draw = lambda: _sample_pp(rng, tol)
    elif set_type == "pe":
        need_variant({"diagonal", "nondiagonal"})
        draw = (lambda: _sample_pe_diagonal(rng, tol)) if variant == "diagonal" \
            else (lambda: _sample_pe_nondiagonal(rng, tol))
    elif set_type == "ep":
        draw = lambda: _sample_ep(rng, tol)
    elif set_type == "ee":
        need_variant({"diagonal", "nondiagonal"})
        draw = (lambda: _sample_ee_diagonal(rng, tol)) if variant == "diagonal" \
            else (lambda: _sample_ee_nondiagonal(rng, tol))
    elif set_type == "ppp":
        draw = lambda: _sample_ppp(rng, tol)
    elif set_type == "ppe":
        need_case()
        draw = lambda: _sample_ppe(rng, tol, case_id)
    elif set_type == "pppp":
        draw = lambda: _sample_pppp(rng, tol)
    elif set_type == "ppee":
        need_case()
        draw = lambda: _sample_ppee(rng, tol, case_id)
    elif set_type == "pm":
        draw = lambda: _sample_pm(rng, tol)
    elif set_type == "pmee":
        draw = lambda: _sample_pmee(rng, tol)
    elif set_type == "mmee":
        need_variant({"diagonal", "nondiagonal"})
        draw = (lambda: _sample_mmee_diagonal(rng, tol)) if variant == "diagonal" \
            else (lambda: _sample_mmee_nondiagonal(rng, tol))
    else:
        raise UnknownTypeError(f"unknown set type {spec.set_type!r}")
    return [draw() for _ in range(spec.count)]
