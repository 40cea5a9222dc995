"""One branch rule decides every diagonal/non-diagonal question.

The diagonal condition on the Gram off-diagonal g selects the paper's
formula.  `schmidt` dispatches on it, `schmidt_diagonal` and
`schmidt_nondiagonal` refuse the states the other one takes (near the
threshold, `test_schmidt.TestDispatch.test_branches_split_states_at_tol`),
and the PE and PPE constructors refuse parameters whose member would land on
the diagonal branch or be a product.  The constructor tests put the member's
g or concurrence within a few ulps of `DEFAULT_TOL`, where any second copy
of the rule that rounds differently would disagree with the first.
"""

import cmath
import math

import pytest

import qschmidt as q
from qschmidt.pairs import _rescale
from qschmidt.schmidt import _parts

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
    """Whether ``build()`` raised `ZeroParameterError`, which it must do
    exactly when ``member``, the member it builds, is a product or takes the
    diagonal branch.  A built set must carry that member and its
    non-diagonal decomposition."""
    c00, c01, c10, c11 = member
    g = abs(c00.conjugate() * c01 + c10.conjugate() * c11)
    assert min(abs(g - TOL), abs(q.concurrence(member) - TOL)) <= 16 * ULP
    product = q.classify([member]) == "P"
    diagonal = not accepts(q.schmidt_nondiagonal, member, q.DiagonalError)
    try:
        s = build()
    except q.ZeroParameterError as e:
        assert product or diagonal, member
        if product:
            assert "too small to yield an entangled" in str(e)
        else:
            assert "diagonal" in str(e)
        return True
    assert not (product or diagonal), member
    assert s.members[set_index] == member
    assert bits(s.schmidt[-1]) == bits(q.schmidt_nondiagonal(member))
    assert s.parts[-1] == _parts(*member)
    return False


def unit(*values):
    return _rescale(values, (1.0,) * len(values), 1.0, False, "test")


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
