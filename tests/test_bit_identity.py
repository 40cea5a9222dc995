"""Every output bit of the scalar API is pinned.

Any change to a coefficient, basis entry, reconstructed amplitude, sampled
state or verification report changes these digests.  They come from
CPython scalar arithmetic and exact numpy array builds: every sampler and
constructor computes on Python numbers, not through ``np.linalg.norm``,
whose BLAS dot fuses (FMA) on some CPUs only.  Density matrices and reduced
states are sums of CPython complex products rather than numpy's SIMD loops,
which fuse the complex multiply on some CPUs only, so `MIXED_DIGEST` pins
them as well; it holds wherever the sampled sets it mixes do.
"""

import functools
import hashlib
import math

import numpy as np
import pytest

import qschmidt as q
from qschmidt import SplitMix64
from helpers import FAMILIES, in_order, states_of
from test_edge_rows import ROWS

DECOMPOSE_DIGEST = "a524a71b8aa6817cf64a5a516f3bf96fceed950a1b4dc177f2e50ee5b2923604"
SETS_DIGEST = "2dce521f9b9de6b79a7a5e2d99a6f601a56b37116b1fecadefe9f3c753fa16d7"
MIXED_DIGEST = "8880c810a37ddda899f288e694f15615961bd8700dce575d167b9f70c0a1e052"
EDGE_DIGEST = "f52d8501770f22a10754ff9dbe6fe6fa5c1902173625f10bd4dd8c51e12157f8"

# Each family's stream, wide: sha256 of
# ``repr((members, parts, params, case_id, variant))`` of every set `sample`
# draws at each seed in WIDE_SEEDS with count WIDE_COUNT, 800 sets a family.
# The stdout pins see 60 sets a family, which a moved stream can miss.
WIDE_SEEDS = range(8)
WIDE_COUNT = 100
WIDE_SAMPLE_DIGESTS = {
    "pp":
        "6ffca2d9914cee4148209c0841fd9116da0803105d60380616b05942bc6ccbc0",
    "pe-diagonal":
        "da666374508d580e0b2e2b94dbdc58936c8a80173106a92764a091bf8ddd6ebe",
    "pe-nondiagonal":
        "fc4594953e6b4d18d69a32df2c0e2355f1ccf5b190a7e79097e70545202c8e6c",
    "ep":
        "e52a9f5cfe3b6e908b3f7a08aa08d4c3d4ab511492c69648d6522fb413f70279",
    "ee-diagonal":
        "62bd6505de9abe01f0d1b4a85a8c5d667f7795d325578836373a5cc383623769",
    "ee-nondiagonal":
        "96221c38c0b5b8d42406c3734f26bee13a78d0500ca99960265033aea7beef19",
    "ppp":
        "7a46d631237798faa7dff627a6c959b460a44980c191e6189ceefd3958a63c99",
    "ppe-1":
        "019b99d6bf33441b167cefd9e6f193b86485171e1735cbbfbaf540ab61c97771",
    "ppe-2":
        "a9d7a83a4d8150bd07e30e6ad08b7e650cd867de62914241dab28ec66fc8565a",
    "ppe-3":
        "9c54d93fb7ffb1eb8b2098ca4ef8adfcc6099391625a5d5d99e0503e06b36659",
    "pppp":
        "923f4da5d86c8dee11cad61d62c51043185a75cebb4e2367b9c09ebc4d86416c",
    "ppee-1":
        "e31eba771f31edf9ab3b2fb117719d6c8fd9a32284fabcc5ab2fa87e2d970769",
    "ppee-2":
        "7f427fea5d48b5ca328180d2778fc6ec182148453c35e106717ace38a3522725",
    "ppee-3":
        "65c9516ac417a8f592ef4d81e01f0232ee5685fc9c3285a485cbc3992163ea68",
    "pm":
        "212bdb512d5c872de3197165e3dd6e199c4224f7ff06b491bfcc0c9dbcda56b7",
    "pmee":
        "8c075d28c0ede562e59b32b507a9f2d6fa0e364e71d864a7ba7631b3b078816f",
    "mmee-diagonal":
        "f0741d9c6dcf8abdd5711b7cc4d8f20c6e703f799d3b157a2173fd7f0c48ffba",
    "mmee-nondiagonal":
        "9c9cd63368e0984e907328f4c7d3da832ad25f84373f2a79e31f787b0be7a587",
}


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


# Unit shapes of the edge lattice.  Scaled by 2**k, g moves by 4**k, so the
# lattice crosses the branch rule, the oracle's subnormal eigenvector seed
# and its zero seed, the subnormal image vector and the rank-1 completion,
# none of which the Haar and band states of `decompose_pool` reach.
EDGE_SHAPES = (
    [0.168, 0.576, 0.224j, 0.768j],  # product
    [0.6, 3e-11, 0.0, 0.8],  # near-diagonal, |g| = 1.8e-11
    [0.5, 0.5, 0.5j, 2e-170 - 0.5j],  # equal column norms, |g| = 1e-170
    [0.0, 0.6, 0.0, 0.8j],  # one vanishing column
)
# Every result is finite from 2**-497 to 2**255 on every shape; below, the
# squared norm falls under the zero floor, and above, squares overflow.
EDGE_EXPONENTS = (-497, -400, -300, -160, -40, 0, 40, 160, 255)


def edge_states() -> list:
    """`test_edge_rows.ROWS`, the four Bell states, and each lattice shape
    at every scale in `EDGE_EXPONENTS`, its second column times each
    fourth root of unity.  Each entry is built component by component,
    which is exact, so no complex multiply rounds or signs a zero."""
    r = math.sqrt(0.5)
    states = list(ROWS.values())
    states += [[r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0]]
    turns = (lambda x, y: (x, y), lambda x, y: (-y, x),
             lambda x, y: (-x, -y), lambda x, y: (y, -x))
    for shape in EDGE_SHAPES:
        for k in EDGE_EXPONENTS:
            c00, c01, c10, c11 = (complex(z.real * 2.0 ** k, z.imag * 2.0 ** k)
                                  for z in map(complex, shape))
            for turn in turns:
                states.append([c00, complex(*turn(c01.real, c01.imag)),
                               c10, complex(*turn(c11.real, c11.imag))])
    return states


def edge_digest() -> str:
    h = hashlib.sha256()
    for s in edge_states():
        for d in (q.schmidt(s), q.oracle_schmidt(s)):
            _feed_decomposition(h, d)
            _feed(h, q.reconstruct(d))
        h.update(repr(q.verify_set([s])).encode())
    return h.hexdigest()


def test_edges_are_bit_identical():
    assert edge_digest() == EDGE_DIGEST


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


@functools.cache
def wide_pool(set_type, case_id, variant) -> tuple:
    """``(digest, mislabelled)`` of a family's wide pool, drawn once: the
    sha256 of its sets and the params of each set whose members classify
    other than its ``type_label`` with M read as E."""
    h = hashlib.sha256()
    mislabelled = []
    for seed in WIDE_SEEDS:
        spec = q.SampleSpec(set_type, case_id, variant, seed, WIDE_COUNT)
        for s in q.sample(spec):
            h.update(repr((s.members, s.parts, s.params, s.case_id,
                           s.variant)).encode())
            if q.classify(s.members) != s.type_label.replace("M", "E"):
                mislabelled.append(s.params)
    return h.hexdigest(), tuple(mislabelled)


def wide_sample_digest(set_type, case_id, variant) -> str:
    return wide_pool(set_type, case_id, variant)[0]


@pytest.mark.parametrize("set_type,case_id,variant", FAMILIES)
def test_sample_streams_are_bit_identical(set_type, case_id, variant):
    name = "-".join(str(x) for x in (set_type, case_id, variant)
                    if x is not None)
    assert wide_sample_digest(set_type, case_id, variant) \
        == WIDE_SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("set_type,case_id,variant", FAMILIES)
def test_wide_pool_classifies_as_labelled(set_type, case_id, variant):
    """Every set of the wide pool is the pattern its label names."""
    assert wide_pool(set_type, case_id, variant)[1] == ()
