"""One branch rule decides every diagonal/non-diagonal question.

The diagonal condition on the Gram off-diagonal g selects the paper's
formula.  `schmidt` dispatches on it, `schmidt_diagonal` and
`schmidt_nondiagonal` refuse the states the other one takes (near the
threshold, `test_schmidt.TestDispatch.test_branches_split_states_at_tol`),
and the PE, EE, PPE and MMEE constructors decide with it, and with
`classify`'s product rule, whether the member they build may stand.  The
constructor tests put the member's g or concurrence at or within a few ulps
of `DEFAULT_TOL`, where any second copy of the rule that rounds or scales
differently would disagree with the first.  The EP, EE and PMEE tests do the
same for the member each family promises is entangled: a set that is built
classifies as its own label, also on the edge-value grid of every family.
"""

import cmath
import inspect
import math
import random

import pytest

import qschmidt as q
from qschmidt.pairs import _rescale
from qschmidt.sampling import FAMILIES
from qschmidt.schmidt import _branch, _parts

TOL = q.DEFAULT_TOL
ULP = math.ulp(TOL)


def ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def bits(d) -> tuple:
    return (d.coeffs.tobytes(), d.basis_a.tobytes(), d.basis_b.tobytes(),
            d.degenerate)


def accepts(branch, state, refusal) -> bool:
    try:
        branch(state)
    except refusal:
        return False
    return True


def test_nan_offdiagonal_is_not_diagonal():
    """|g| is NaN (inf - inf); `schmidt` sends it to the non-diagonal
    branch, so `schmidt_diagonal` refuses it as well."""
    s = [1e200, 1e200, -1e200, 1e200]
    with pytest.raises(q.NotDiagonalError, match="magnitude nan exceeds"):
        q.schmidt_diagonal(s)
    assert bits(q.schmidt(s)) == bits(q.schmidt_nondiagonal(s))


def check_guard(build, member, set_index) -> bool:
    """Whether ``build()`` refused ``member``, the member it builds, which it
    must do with `ZeroParameterError` exactly when the member is a product,
    and otherwise with `DiagonalError` exactly when it takes the diagonal
    branch, as `schmidt_nondiagonal` does.  A built set must carry that
    member and its non-diagonal decomposition."""
    c00, c01, c10, c11 = member
    g = abs(c00.conjugate() * c01 + c10.conjugate() * c11)
    assert min(abs(g - TOL), abs(q.concurrence(member) - TOL)) <= 16 * ULP
    product = q.classify([member]) == "P"
    diagonal = not accepts(q.schmidt_nondiagonal, member, q.DiagonalError)
    try:
        s = build()
    except q.ZeroParameterError as e:
        assert product, member
        assert "too small to yield an entangled" in str(e)
        return True
    except q.DiagonalError as e:
        assert diagonal and not product, member
        assert "on the diagonal branch" in str(e)
        return True
    assert not (product or diagonal), member
    assert s.members[set_index] == member
    assert bits(s.schmidt[-1]) == bits(q.schmidt_nondiagonal(member))
    assert s.parts[-1] == _parts(*member)
    return False


def check_label(build, refusal, message) -> bool:
    """Whether ``build()`` raised ``refusal`` with ``message``; a set it
    returns classifies as its own label, M read as E."""
    try:
        s = build()
    except refusal as e:
        assert message in str(e)
        return True
    assert q.classify(s.members) == s.type_label.replace("M", "E"), s.params
    return False


@pytest.mark.parametrize("construct", [
    lambda gamma: q.construct_ep(gamma, 1, 1),
    lambda gamma: q.construct_ee_diagonal(gamma, 0, 0.6, 0.8),
    lambda gamma: q.construct_ee_nondiagonal(gamma, 0.5, 0.5, 0.5),
], ids=["ep", "ee-diagonal", "ee-nondiagonal"])
def test_gamma_guard_follows_the_first_member(construct):
    """gamma steps by ulps across (TOL / 2)^2, where the first member's
    concurrence 2 sqrt(gamma (1 - gamma)) crosses `DEFAULT_TOL`."""
    outcomes = {check_label(lambda: construct(ulps((TOL / 2) ** 2, k)),
                            q.ZeroParameterError, "is too small")
                for k in range(-8, 9)}
    assert outcomes == {True, False}


def test_pmee_guard_follows_the_third_member():
    """|c| steps by ulps across sqrt(TOL / 2), where the third member's
    concurrence 2|c|^2 crosses `DEFAULT_TOL`."""
    outcomes = set()
    for phase in (0.0, 1.0, 2.5):
        for k in range(-8, 9):
            c = cmath.rect(ulps(math.sqrt(TOL / 2), k), phase)
            outcomes.add(check_label(lambda: q.construct_pmee(0.1, 0.2, 0.3, c),
                                     q.ZeroParameterError,
                                     "too small to yield an entangled"))
    assert outcomes == {True, False}


def unit(*values):
    return _rescale(values, (1.0,) * len(values), 1.0, "test")


def test_pe_nondiagonal_guards_follow_the_member():
    """|b^* c| or 2|ab| steps across `DEFAULT_TOL`; with (a, c) unit, b is
    too small to move the scaling."""
    rng = q.SplitMix64(5)
    outcomes = set()
    for i in range(120):
        a, c = unit(*(cmath.rect(0.4 + 0.4 * rng.uniform(),
                                 2.0 * math.pi * rng.uniform()) for _ in "ac"))
        scale = abs(c) if i % 2 else 2.0 * abs(a)
        b = cmath.rect(ulps(TOL / scale, i % 7 - 3), 2.0 * math.pi * rng.uniform())
        member = (0.0j, *unit(a, b, c))
        outcomes.add(check_guard(lambda: q.construct_pe_nondiagonal(a, b, c),
                                 member, 1))
    assert outcomes == {True, False}


def ppe_third(case_id, a, b, c, d):
    if case_id == 2:
        return (0.0j, c * b.conjugate(), d, -c * a.conjugate())
    return (0.0j, c, d * b.conjugate(), -d * a.conjugate())


@pytest.mark.parametrize("case_id", [2, 3])
def test_ppe_guards_follow_the_third_member(case_id):
    """With (a, b) and (c, d) unit and |d| small, case 2's third member has
    |g| = |a||d| and concurrence 2|b||d|; case 3's has |g| = |ab||d|^2.
    |d| is put on the edge of one or the other."""
    construct = {2: q.construct_ppe_case2, 3: q.construct_ppe_case3}[case_id]
    rng = q.SplitMix64(40 + case_id)
    outcomes = set()
    for i in range(120):
        a, b, c = (cmath.rect(0.4 + 0.4 * rng.uniform(),
                              2.0 * math.pi * rng.uniform()) for _ in range(3))
        an, bn = unit(a, b)
        if i % 2:
            dn = TOL / (2.0 * abs(bn))
        elif case_id == 2:
            dn = TOL / abs(an)
        else:
            dn = math.sqrt(TOL / abs(an * bn))
        d = cmath.rect(ulps(dn * abs(c) / math.sqrt(1.0 - dn * dn), i % 7 - 3),
                       2.0 * math.pi * rng.uniform())
        member = ppe_third(case_id, an, bn, *unit(c, d))
        outcomes.add(check_guard(lambda: construct(a, b, c, d), member, 2))
    assert outcomes == {True, False}


def test_diagonal_pair_guard_follows_the_member():
    """PE-diagonal and PPE case 1 refuse x|01> + y|10> exactly when it is a
    product by `classify`'s rule."""
    rng = q.SplitMix64(9)
    outcomes = set()
    for i in range(100):
        x = cmath.rect(1.0, 2.0 * math.pi * rng.uniform())
        y = cmath.rect(ulps(TOL / 2.0, i % 7 - 3), 2.0 * math.pi * rng.uniform())
        member = (0.0j, *unit(x, y), 0.0j)
        product = q.classify([member]) == "P"
        for construct in (q.construct_pe_diagonal, q.construct_ppe_case1):
            try:
                construct(x, y)
            except q.ZeroParameterError:
                fired = True
            else:
                fired = False
            assert fired == product, (x, y)
        outcomes.add(product)
    assert outcomes == {True, False}


def test_ee_variants_split_at_the_branch_rule():
    """At gamma = 0.9, b = 3 (a / a^*) c^* + delta makes the paper's
    diagonality residual vanish at delta = 0; the second member's |g| is
    then |a| delta / 2.2 after scaling, a factor 1 / sqrt(1 - gamma) above
    that residual.  delta steps |g| across `DEFAULT_TOL`: exactly one
    variant builds, the diagonal one where `_branch` finds the member
    diagonal, and the set classifies as EE."""
    a, c = 0.2 + 0.1j, 0.4 - 0.1j
    b = 3.0 * (a / a.conjugate()) * c.conjugate()
    edge = 2.2 * TOL / abs(a)
    seen = set()
    for k in range(-20, 61):
        params = (0.9, a, b + edge * (1.0 + k / 40.0), c)
        built = {}
        for construct in (q.construct_ee_diagonal, q.construct_ee_nondiagonal):
            try:
                s = construct(*params)
            except (q.NotDiagonalError, q.DiagonalError):
                continue
            built[s.variant] = s
        assert len(built) == 1, params
        (variant, s), = built.items()
        assert (_branch(*s.members[1])[2] is None) == (variant == "diagonal")
        assert q.classify(s.members) == "EE", params
        seen.add(variant)
    assert seen == {"diagonal", "nondiagonal"}


def test_mmee_guard_follows_the_third_member():
    """With theta = theta' = 0 and real a > b, the third member
    (a, b, -b, -a) has concurrence 2E, E = a^2 - b^2; E steps across
    3e-11..2e-10.  Both variants refuse it exactly when `classify` reads it
    as a product; otherwise the diagonal variant refuses it as non-diagonal
    (D = 2ab) and the non-diagonal variant builds its label."""
    outcomes = set()
    for k in range(-8, 61):
        e = 5e-11 + k * 2.5e-12
        a, b = math.sqrt((0.5 + e) / 2.0), math.sqrt((0.5 - e) / 2.0)
        an, bn = _rescale((a, b), (1.0, 1.0), 0.5, "test")
        product = q.classify([(an, bn, -bn, -an)]) == "P"
        refused = check_label(lambda: q.construct_mmee_nondiagonal(0, 0, a, b),
                              q.ZeroParameterError,
                              "too small to yield an entangled third member")
        assert refused == product, e
        with pytest.raises(q.ZeroParameterError if product
                           else q.NotDiagonalError):
            q.construct_mmee_diagonal(0, 0, a, b)
        outcomes.add(product)
    assert outcomes == {True, False}


# Zeros, subnormals, the tolerance scale, huge and non-finite numbers, bools
# and ordinary values; the angles include those large enough to swamp the
# others in a sum, or to overflow it.
EDGES = (0, 0.0, -0.0, 1e-320, -1e-320, 1e-12, 1e-10, 1e-10j, 1e-200, 1e200,
         1e308, -1e308, math.nan, math.inf, -math.inf, True, False, 1, -1,
         0.5, 0.9, 0.3, 0.3 - 0.2j, 0.8j, -0.4j, 0.2 + 0.1j, 1e-6, 1e5, 1e-21)
ANGLES = (0, 0.3, -1, 1e-21, 1e5, 1e200, 1e308, -1e308, math.nan, math.inf,
          True)
BASES = (((1, 0), (0, 1)), ((0.6, 0.8j), (0.8, -0.6j)), ((1e-320, 1), (1, 0)))


def edge_argument(rng, name):
    if name == "variant":
        return rng.choice(("a-side", "b-side"))
    if name.startswith("theta"):
        return rng.choice(ANGLES)
    if name == "sign":
        return rng.choice((1, -1, True, 0))
    if name == "single":
        return (rng.choice(EDGES), rng.choice(EDGES))
    if name == "basis":
        return rng.choice(BASES + ((edge_argument(rng, "single"),) * 2,))
    return rng.choice(EDGES)


@pytest.mark.parametrize("key", list(FAMILIES),
                         ids=["-".join(map(str, filter(None, k)))
                              for k in FAMILIES])
def test_edge_grid_refuses_or_builds_the_label(key):
    """About 500 seeded calls of each family's constructor on edge values:
    each raises a `QuantumStateError` or returns finite members that
    classify as the set's label, M read as E."""
    construct = FAMILIES[key].construct
    names = list(inspect.signature(construct).parameters)
    rng = random.Random(list(FAMILIES).index(key))
    for _ in range(500):
        args = [edge_argument(rng, name) for name in names]
        try:
            s = construct(*args)
        except q.QuantumStateError:
            continue
        assert all(cmath.isfinite(z) for m in s.members for z in m), args
        assert q.classify(s.members) == s.type_label.replace("M", "E"), args
