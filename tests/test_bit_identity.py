"""Every output bit of the scalar API is pinned.

The decomposition and set digests were recorded before the numpy round
trips at the API boundary (parsing, result wrapping, the mixed-state
checks) were rewritten; any change to a coefficient, basis entry,
reconstructed amplitude, sampled state or verification report changes
them.  They come from CPython scalar arithmetic and exact numpy array
builds (the pp, ppp and pppp sample streams, and the ep constructor, also
pass through ``np.linalg.norm``).  Density matrices and reduced states are
sums of CPython complex products rather than numpy's SIMD loops, which
fuse the complex multiply (FMA) on some CPUs only, so `MIXED_DIGEST` pins
them as well; it holds wherever the sampled sets it mixes do.
"""

import hashlib
import math

import numpy as np

import qschmidt as q
from qschmidt import SplitMix64
from helpers import FAMILIES, in_order, states_of

DECOMPOSE_DIGEST = "a524a71b8aa6817cf64a5a516f3bf96fceed950a1b4dc177f2e50ee5b2923604"
SETS_DIGEST = "ddd582d7f2b628e2951c807a7b8547e725cc86450782427fd82d795c501a1cd1"
MIXED_DIGEST = "9e948314ce1660fa7927352b68e1505476cd42e5b715f6004b717108ac75b18b"


def _cplx(rng):
    return complex(rng.gauss(), rng.gauss())


def _unit(c):
    n = math.sqrt(in_order(z.real * z.real + z.imag * z.imag for z in c))
    return [z / n for z in c]


def _band(rng):
    """Columns with a prescribed overlap |g| in 1e-14..1e-6."""
    g_abs = 10.0 ** (-14.0 + 8.0 * rng.uniform())
    lam1 = 10.0 ** (math.log10(4.0 * g_abs) * rng.uniform())
    n1 = min(lam1 * lam1, 0.49)
    n0 = 1.0 - n1
    u0, u1 = _unit([_cplx(rng), _cplx(rng)])
    p0, p1 = -u1.conjugate(), u0.conjugate()
    t = rng.angle()
    g = g_abs * complex(math.cos(t), math.sin(t))
    s0 = math.sqrt(n0)
    along = g / s0
    across = math.sqrt(max(n1 - g_abs * g_abs / n0, 0.0))
    col0 = (s0 * u0, s0 * u1)
    col1 = (along * u0 + across * p0, along * u1 + across * p1)
    if rng.sign() > 0:
        col0, col1 = col1, col0
    return [col0[0], col1[0], col0[1], col1[1]]


def decompose_pool():
    """Haar, exactly diagonal, rank-1 and boundary-band states, drawn with
    scalar arithmetic only so the pool does not depend on numpy's loops;
    some Haar states also come as lists and as complex64 arrays."""
    rng = SplitMix64(20_261_018)
    rows = [_unit([_cplx(rng) for _ in range(4)]) for _ in range(300)]
    for _ in range(50):
        x, y = _cplx(rng), _cplx(rng)
        rows.append(_unit([x, 0j, 0j, y]))
        rows.append(_unit([0j, x, y, 0j]))
        rows.append(_unit([x, 0j, y, 0j]))
        rows.append(_unit([0j, x, 0j, y]))
        rows.append(list(q.tensor(_unit([_cplx(rng), _cplx(rng)]),
                                  _unit([_cplx(rng), _cplx(rng)]))))
    rows.extend(_band(rng) for _ in range(300))
    pool = list(np.array(rows, dtype=complex))
    pool.extend(rows[:20])
    pool.extend(np.array(rows[20:40], dtype=np.complex64))
    return pool


def _feed(h, a):
    a = np.asarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _feed_decomposition(h, d):
    for a in (d.coeffs, d.basis_a, d.basis_b):
        _feed(h, a)
    h.update(b"1" if d.degenerate else b"0")


def decompose_digest() -> str:
    h = hashlib.sha256()
    for s in decompose_pool():
        for d in (q.schmidt(s), q.oracle_schmidt(s)):
            _feed_decomposition(h, d)
            _feed(h, q.reconstruct(d))
    return h.hexdigest()


def family_sets():
    """``sample`` output for all 18 families, with seeded mixing weights."""
    rng = SplitMix64(77)
    for i, (set_type, case_id, variant) in enumerate(FAMILIES):
        spec = q.SampleSpec(set_type=set_type, case_id=case_id,
                            variant=variant, seed=1000 + i, count=6)
        for s in q.sample(spec):
            states = states_of(s)
            decs = s.schmidt
            e = [0.05 + rng.uniform() for _ in states]
            total = in_order(e)
            yield states, decs, [x / total for x in e]


def sets_digest() -> str:
    h = hashlib.sha256()
    for states, decs, _ in family_sets():
        for st in states:
            _feed(h, st)
        for d in decs:
            _feed_decomposition(h, d)
        h.update(repr(q.verify_set(states)).encode())
    return h.hexdigest()


def reference_spectral_mix(states, weights):
    """sum_i w_i |s_i><s_i| one entry at a time on Python numbers, summed
    over the states in order from 0j."""
    amps = [q.core.amplitudes(s) for s in states]
    rho = np.empty((4, 4), dtype=complex)
    for r in range(4):
        for c in range(4):
            acc = 0j
            for w, a in zip(weights, amps):
                acc = acc + w * (a[r] * a[c].conjugate())
            rho[r, c] = acc
    return rho


def old_reduce_a(m):
    out = np.empty((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            out[j, k] = m[2 * j, 2 * k] + m[2 * j + 1, 2 * k + 1]
    return out


def old_reduce_b(m):
    out = np.empty((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            out[j, k] = m[j, k] + m[2 + j, 2 + k]
    return out


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def test_decompositions_are_bit_identical():
    assert decompose_digest() == DECOMPOSE_DIGEST


def test_sets_are_bit_identical():
    assert sets_digest() == SETS_DIGEST


def mixed_digest() -> str:
    h = hashlib.sha256()
    for states, _, weights in family_sets():
        rho = q.spectral_mix(states, weights)
        for a in (rho, q.reduce_a(rho), q.reduce_b(rho)):
            _feed(h, a)
    return h.hexdigest()


def test_mixed_states_match_previous_formulation():
    """Density matrices and partial traces equal, bit for bit, the
    entry-by-entry Python-number sum and the element loops."""
    n = 0
    for states, _, weights in family_sets():
        rho = q.spectral_mix(states, weights)
        ref = reference_spectral_mix(states, weights)
        assert _same_bits(rho, ref)
        assert _same_bits(q.reduce_a(rho), old_reduce_a(ref))
        assert _same_bits(q.reduce_b(rho), old_reduce_b(ref))
        n += 1
    assert n == 6 * len(FAMILIES)


def test_mixed_states_are_bit_identical():
    assert mixed_digest() == MIXED_DIGEST
