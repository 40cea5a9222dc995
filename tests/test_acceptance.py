"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output).  The heavy suites run on seeded streams so failures are
reproducible exactly.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import qschmidt as q
from helpers import (
    GOLD_DIAG,
    GOLD_NONDIAG,
    GOLD_PE_COEFFS,
    KET00,
    R12,
    R13,
    R23,
    bases_match_as_sets,
    phase_aligned_dev,
    states_of,
)

BIG = 10_000
MED = 1_000


@contextmanager
def criterion(num, text):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL  {text}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num}: PASS  {text} ({elapsed:.2f} s)")


def test_criterion_1_golden_fixtures():
    with criterion(1, "golden decompositions and coefficients"):
        d1 = q.schmidt(GOLD_DIAG)
        assert np.max(np.abs(d1.coeffs - [R12, R12])) <= 1e-12
        assert phase_aligned_dev([R23, R13], d1.basis_a[0]) <= 1e-12
        assert phase_aligned_dev([R13, -R23], d1.basis_a[1]) <= 1e-12
        assert phase_aligned_dev(q.KET0, d1.basis_b[0]) <= 1e-12
        assert phase_aligned_dev(q.KET1, d1.basis_b[1]) <= 1e-12

        d2 = q.schmidt(GOLD_NONDIAG)
        assert np.max(np.abs(d2.coeffs - [R23, R13])) <= 1e-12
        assert phase_aligned_dev(q.KET0, d2.basis_a[0]) <= 1e-12
        assert phase_aligned_dev(q.KET1, d2.basis_a[1]) <= 1e-12
        assert phase_aligned_dev(q.PLUS, d2.basis_b[0]) <= 1e-12
        assert phase_aligned_dev(q.MINUS, d2.basis_b[1]) <= 1e-12

        pair = q.construct_pe_nondiagonal(R12, 0.5, 0.5)
        assert np.max(np.abs(pair.schmidt[0].coeffs
                             - GOLD_PE_COEFFS)) <= 1e-12


def test_criterion_2_misapplied_branch_falsifier():
    with criterion(2, "wrong-branch failure modes reproduce exactly"):
        wrong = q.schmidt_diagonal(GOLD_NONDIAG, check=False)
        overlap = abs(np.vdot(wrong.basis_a[0], wrong.basis_a[1]))
        assert overlap > 0.1
        assert abs(overlap - 1.0 / 3.0) <= 1e-12
        try:
            q.schmidt_nondiagonal(GOLD_DIAG)
        except q.DiagonalError:
            pass
        else:
            raise AssertionError("diagonal input must raise DiagonalError")


def test_criterion_3_oracle_equivalence():
    with criterion(3, f"closed-form vs eigensolver on {BIG} random states"):
        rng = q.SplitMix64(314159)
        start = time.perf_counter()
        for _ in range(BIG):
            s = q.make_state(*(complex(rng.gauss(), rng.gauss())
                               for _ in range(4)), normalize=True)
            closed = q.schmidt(s)
            orac = q.oracle_schmidt(s)
            assert np.max(np.abs(closed.coeffs - orac.coeffs)) <= 1e-12
            assert np.max(np.abs(q.reconstruct(closed) - s)) <= 1e-12
            assert np.max(np.abs(q.reconstruct(orac) - s)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime target exceeded: {elapsed:.2f} s"


CONSTRUCTIBLE = [
    ("pp", None, None, "PP"),
    ("pe", None, "diagonal", "PE"),
    ("pe", None, "nondiagonal", "PE"),
    ("ep", None, None, "EP"),
    ("ee", None, "diagonal", "EE"),
    ("ee", None, "nondiagonal", "EE"),
    ("ppp", None, None, "PPP"),
    ("ppe", 1, None, "PPE"),
    ("ppe", 2, None, "PPE"),
    ("ppe", 3, None, "PPE"),
    ("pppp", None, None, "PPPP"),
    ("ppee", 1, None, "PPEE"),
    ("ppee", 2, None, "PPEE"),
    ("ppee", 3, None, "PPEE"),
    ("pm", None, None, "PE"),
    ("pmee", None, None, "PEEE"),
    ("mmee", None, "diagonal", "EEEE"),
    ("mmee", None, "nondiagonal", "EEEE"),
]

REFINED = {
    ("pm", None, None): "PM",
    ("pmee", None, None): "PMEE",
    ("mmee", None, "diagonal"): "MMMM",
    ("mmee", None, "nondiagonal"): "MMEE",
}


def test_criterion_4_constructor_property_suites():
    with criterion(4, f"{len(CONSTRUCTIBLE)} type/case suites x {BIG} samples"):
        start = time.perf_counter()
        for set_type, case_id, variant, pattern in CONSTRUCTIBLE:
            spec = q.SampleSpec(set_type=set_type, case_id=case_id,
                                variant=variant, seed=271828, count=BIG)
            refined = REFINED.get((set_type, case_id, variant))
            for obj in q.sample(spec):
                states = states_of(obj)
                report = q.verify_set(states)
                assert report.passed, (set_type, case_id, variant)
                labels = "".join(s.label for s in report.per_state)
                plain = labels.replace("M", "E")
                assert plain == pattern.replace("M", "E"), \
                    (set_type, case_id, variant, labels)
                if refined is not None:
                    assert labels == refined, (set_type, labels)
                for dec in obj.schmidt:
                    l0, l1 = float(dec.coeffs[0]), float(dec.coeffs[1])
                    assert abs(l0 * l0 + l1 * l1 - 1.0) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.2f} s"


def test_criterion_5_no_ppp_completes_to_entangled():
    with criterion(5, f"{BIG} product triples all complete to product states"):
        counterexamples = 0
        for obj in q.sample(q.SampleSpec("ppp", seed=161803, count=BIG)):
            _, conc = q.complete_ppp(obj)
            if conc > 1e-10:
                counterexamples += 1
        assert counterexamples == 0


def test_criterion_6_shared_spectrum():
    with criterion(6, f"shared-spectrum structure, {MED} samples per family"):
        for case_id, side in ((2, "basis_b"), (3, "basis_a")):
            spec = q.SampleSpec("ppee", case_id=case_id, seed=577215, count=MED)
            for obj in q.sample(spec):
                c2 = q.concurrence(obj.states[2])
                c3 = q.concurrence(obj.states[3])
                assert abs(c2 - c3) <= 1e-12
                d2 = q.oracle_schmidt(obj.states[2])
                d3 = q.oracle_schmidt(obj.states[3])
                assert bases_match_as_sets(getattr(d2, side),
                                           getattr(d3, side), tol=1e-10)

        for variant in ("diagonal", "nondiagonal"):
            spec = q.SampleSpec("mmee", variant=variant, seed=141421, count=MED)
            for obj in q.sample(spec):
                t2 = np.array(obj.schmidt[2].coeffs)
                t3 = np.array(obj.schmidt[3].coeffs)
                assert np.max(np.abs(t2 - t3)) <= 1e-12
                o2 = q.oracle_schmidt(obj.states[2])
                o3 = q.oracle_schmidt(obj.states[3])
                assert np.max(np.abs(o2.coeffs - o3.coeffs)) <= 1e-12

        for obj in q.sample(q.SampleSpec("pmee", seed=662607, count=MED)):
            mag_c = abs(obj.params["c"])
            dec3 = obj.schmidt[2]
            for j in range(2):
                xi_j = float(dec3.coeffs[j])
                scale = math.sqrt(mag_c * mag_c + xi_j * xi_j)
                vec = dec3.basis_a[j]
                assert abs(abs(vec[0]) * scale - mag_c) <= 1e-12
                assert abs(abs(vec[1]) * scale - xi_j) <= 1e-12


def test_criterion_7_mixed_state_fixture():
    with criterion(7, "rank-2 reduction formula and reduced spectra"):
        pe = q.construct_pe_nondiagonal(R12, 0.5, 0.5)
        ent = (1.0 / (2.0 * math.sqrt(2.0))) * np.array(
            [[math.sqrt(2.0), 1.0], [1.0, math.sqrt(2.0)]])
        for w0 in (0.3, 0.5, 0.9, 0.42):
            rho = q.spectral_mix([KET00, pe.states[1]], [w0, 1.0 - w0])
            expect = w0 * np.array([[1.0, 0.0], [0.0, 0.0]]) + (1.0 - w0) * ent
            assert np.max(np.abs(q.reduce_a(rho) - expect)) <= 1e-12

        rng = q.SplitMix64(602214)
        for _ in range(MED):
            s = q.make_state(*(complex(rng.gauss(), rng.gauss())
                               for _ in range(4)), normalize=True)
            d = q.schmidt(s)
            ra = q.reduce_a(np.outer(s, s.conj()))
            ev = np.sort(np.linalg.eigvalsh(ra))[::-1]
            expect = np.array(d.coeffs) ** 2
            assert np.max(np.abs(ev - expect)) <= 1e-12
