"""`decompose` workload: schmidt, oracle_schmidt and reconstruct per state.

One op decomposes a state by both routes and rebuilds it from the closed
form.  The pool mixes 80 % Haar-random states (non-diagonal branch), 10 %
exactly diagonal states, a third of them rank 1, and a 10 % boundary band
whose Gram off-diagonal |g| spreads log-uniformly over 1e-14..1e-6, on
both sides of the 1e-10 branch switch, with the smaller column norm down
to 1e-8.  The band is where the diagonal branch is known to return
A-side bases that are not orthonormal at 1e-12; those ops count as failed.

The band is one fixed sweep, the same at every seed (the seed places it
among the other states), and ``attempted`` and ``failed`` count the first
pass over the pool, which every run makes in full.  So the defect fails
the same number of ops in every run.  Later passes, which fill the timed
run, are checked as well: an op whose verdict differs from its first
pass's fails the correctness gate.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np

import qschmidt
from common import CHECK_TOL, TOL, Record, peak_rss_mb, now_ns

HAAR, DIAGONAL, RANK1, BAND = range(4)
CHECKS = ("orthonormal", "order", "reconstruct", "mismatch", "raised")
CHUNK = 500
BAND_SEED = 20_000
LATENCY_CAPACITY = 1 << 21


def _unit_qubit(rng):
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2)]
    n = math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    return v[0] / n, v[1] / n


def _phase(rng):
    t = 2.0 * math.pi * rng.random()
    return complex(math.cos(t), math.sin(t))


def _haar(rng):
    return [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]


def _diagonal(rng, rank1: bool):
    """Amplitudes whose Gram off-diagonal is exactly 0 in floating point."""
    x = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    y = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    shape = rng.randrange(2)
    if rank1:  # one column of the coefficient matrix vanishes
        return [x, 0j, y, 0j] if shape else [0j, x, 0j, y]
    return [x, 0j, 0j, y] if shape else [0j, x, y, 0j]


def _band(rng):
    """Columns with a prescribed tiny overlap g and a small second norm."""
    g_abs = 10.0 ** rng.uniform(-14.0, -6.0)
    lo = max(-8.0, math.log10(4.0 * g_abs))
    lam1 = 10.0 ** rng.uniform(lo, math.log10(0.7))
    n1 = lam1 * lam1
    n0 = 1.0 - n1
    u0, u1 = _unit_qubit(rng)
    ph = _phase(rng)
    p0, p1 = -u1.conjugate() * ph, u0.conjugate() * ph
    g = g_abs * _phase(rng)
    s0 = math.sqrt(n0)
    along = g / s0
    across = math.sqrt(max(n1 - g_abs * g_abs / n0, 0.0))
    col0 = (s0 * u0, s0 * u1)
    col1 = (along * u0 + across * p0, along * u1 + across * p1)
    if rng.randrange(2):
        col0, col1 = col1, col0
    return [col0[0], col1[0], col0[1], col1[1]]


def _gram_offdiagonal(c):
    return c[0].conjugate() * c[1] + c[2].conjugate() * c[3]


class Pool:
    """Seeded states in a fixed kind mix, shuffled; the band states come
    from their own fixed stream."""

    def __init__(self, seed: int, size: int):
        rng = random.Random(seed)
        band_rng = random.Random(BAND_SEED)
        n_haar = size * 8 // 10
        n_diag = size // 10
        n_rank1 = n_diag // 3
        kinds = ([HAAR] * n_haar + [RANK1] * n_rank1
                 + [DIAGONAL] * (n_diag - n_rank1)
                 + [BAND] * (size - n_haar - n_diag))
        rng.shuffle(kinds)
        rows = []
        for kind in kinds:
            if kind == HAAR:
                c = _haar(rng)
            elif kind == BAND:
                c = _band(band_rng)
            else:
                c = _diagonal(rng, kind == RANK1)
            n = math.sqrt(sum(abs(z) ** 2 for z in c))
            rows.append([z / n for z in c])
        self.array = np.array(rows, dtype=complex)
        self.states = list(self.array)
        self.kinds = np.array(kinds)
        self.diagonal = np.array([abs(_gram_offdiagonal(c)) <= TOL for c in rows])

    def counts(self) -> dict:
        return {
            "decompose.diagonal_n": int(self.diagonal.sum()),
            "decompose.nondiagonal_n": int((~self.diagonal).sum()),
            "decompose.rank1_n": int((self.kinds == RANK1).sum()),
            "decompose.band_n": int((self.kinds == BAND).sum()),
        }


def _basis_error(bases):
    """Largest |<r_j|r_k> - delta_jk| of each (n, 2, 2) row basis."""
    g = np.conj(bases) @ np.transpose(bases, (0, 2, 1))
    return np.abs(g - np.eye(2)).max(axis=(1, 2))


def _order_ok(coeffs):
    return (coeffs[:, 0] >= coeffs[:, 1]) & (coeffs[:, 1] >= 0.0)


class Tally:
    """Contract violations of the first pass over a pool of ``size``
    states, and gate failures over every pass.

    ``ops``, ``failed`` and ``by_check`` count each state once, at its
    first op.  A later op on the same state is checked again; if its
    verdict differs from the first one, it counts in ``unstable`` and as
    a gate failure.  ``timed_ops`` counts every op.
    """

    def __init__(self, size: int):
        self.ops = 0
        self.failed = 0
        self.gate_failures = 0
        self.unstable = 0
        self.timed_ops = 0
        self.by_check = dict.fromkeys(CHECKS, 0)
        self.verdict = np.zeros(size, dtype=bool)
        self.seen = np.zeros(size, dtype=bool)

    def add(self, start, states, kinds, results):
        ok = np.array([r is not None for r in results])
        bad = {"raised": ~ok}
        done = [r for r in results if r is not None]
        if done:
            d_c = np.array([d.coeffs for d, _, _ in done], dtype=float)
            o_c = np.array([o.coeffs for _, o, _ in done], dtype=float)
            err = np.maximum.reduce([
                _basis_error(np.array([d.basis_a for d, _, _ in done])),
                _basis_error(np.array([d.basis_b for d, _, _ in done])),
                _basis_error(np.array([o.basis_a for _, o, _ in done])),
                _basis_error(np.array([o.basis_b for _, o, _ in done])),
            ])
            rec = np.array([r for _, _, r in done], dtype=complex)
            rec_err = np.abs(rec - states[ok]).max(axis=1)
            mismatch = np.abs(d_c - o_c).max(axis=1)
            for name, viol in (("orthonormal", err > CHECK_TOL),
                               ("order", ~(_order_ok(d_c) & _order_ok(o_c))),
                               ("reconstruct", rec_err > CHECK_TOL),
                               ("mismatch", mismatch > CHECK_TOL)):
                full = np.zeros(len(results), dtype=bool)
                full[ok] = viol
                bad[name] = full
            haar = kinds[ok] == HAAR
            self.gate_failures += int((mismatch[haar] > CHECK_TOL).sum())
        self.gate_failures += int((~ok & (kinds == HAAR)).sum())
        any_bad = np.zeros(len(results), dtype=bool)
        for viol in bad.values():
            any_bad |= viol
        self.timed_ops += len(results)
        rows = slice(start, start + len(results))
        if self.seen[rows].all():
            unstable = int((any_bad != self.verdict[rows]).sum())
            self.unstable += unstable
            self.gate_failures += unstable
            return
        for name, viol in bad.items():
            self.by_check[name] += int(viol.sum())
        self.seen[rows] = True
        self.verdict[rows] = any_bad
        self.ops += len(results)
        self.failed += int(any_bad.sum())

    def counts(self) -> dict:
        out = {f"decompose.fail.{k}_n": v for k, v in self.by_check.items()}
        out["decompose.failed_n"] = self.failed
        return out


class Decompose:
    name = "decompose"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.size = 2_000 if smoke else 20_000

    def setup(self):
        self.pool = Pool(self.seed, self.size)

    def pass_over(self, tally: Tally, rec: Record, deadline=None, tracer=None):
        """Run ops over the pool, chunk by chunk, until the pool is done or
        ``deadline`` passes.  Returns the ns spent in ops."""
        # Looked up per pass, so a traced pass calls the traced bindings.
        schmidt, reconstruct = qschmidt.schmidt, qschmidt.reconstruct
        oracle_schmidt = qschmidt.oracle_schmidt
        err_type = qschmidt.QuantumStateError
        pool = self.pool
        buf, n, cap = rec.buf, rec.n, len(rec.buf)
        busy = 0
        for start in range(0, self.size, CHUNK):
            if deadline is not None and now_ns() >= deadline:
                break
            chunk = pool.states[start:start + CHUNK]
            diag = pool.diagonal[start:start + CHUNK]
            results = []
            t_chunk = now_ns()
            for i, s in enumerate(chunk):
                if tracer is not None:
                    tracer.new_op()
                    root = tracer.begin("decompose.op.diagonal" if diag[i]
                                        else "decompose.op.nondiagonal")
                t0 = now_ns()
                try:
                    d = schmidt(s)
                    o = oracle_schmidt(s)
                    r = reconstruct(d)
                    results.append((d, o, r))
                except err_type:
                    results.append(None)
                if n < cap:
                    buf[n] = now_ns() - t0
                n += 1
                if tracer is not None:
                    tracer.end(root)
            chunk_ns = now_ns() - t_chunk
            busy += chunk_ns
            rec.window(len(chunk), chunk_ns, len(chunk))
            tally.add(start, pool.array[start:start + CHUNK],
                      pool.kinds[start:start + CHUNK], results)
        rec.n = n
        return busy

    def run(self, seconds: float) -> dict:
        tally, rec = Tally(self.size), Record(LATENCY_CAPACITY)
        deadline = now_ns() + int(seconds * 1e9)
        self.pass_over(tally, rec)
        exact = dict(self.pool.counts(), **tally.counts())
        while now_ns() < deadline:
            self.pass_over(tally, rec, deadline)
        return {
            "ops": tally.ops, "failed": tally.failed,
            "gate_failures": tally.gate_failures,
            "timed_ops": tally.timed_ops, "unstable": tally.unstable,
            "record": rec,
            "peak_rss_mb": peak_rss_mb(),
            "exact": exact,
            "digests": {"decompose.inputs": hashlib.sha256(
                self.pool.array.tobytes()).hexdigest()[:16]},
        }

    def work_once(self, tracer=None):
        """One full pass over the pool: (busy s, ops, failed, gate failures)."""
        self.tally = tally = Tally(self.size)
        busy = self.pass_over(tally, Record(0), tracer=tracer)
        return busy * 1e-9, tally.ops, tally.failed, tally.gate_failures

    def layers(self, tracer) -> dict:
        out = {}
        for key, root in (("schmidt.schmidt_us", None),
                          ("schmidt.schmidt_diag_us", "decompose.op.diagonal"),
                          ("schmidt.schmidt_nondiag_us", "decompose.op.nondiagonal")):
            calls, total, _ = tracer.summary(root)["schmidt.schmidt"]
            out[key] = (total / calls * 1e-3, "us/call")
        s = tracer.summary()
        us = lambda name: (s[name][1] / s[name][0] * 1e-3, "us/call")
        calls, _, self_ns = s["schmidt.schmidt"]
        out.update({
            "core.amplitudes_us": us("core.amplitudes"),
            "schmidt.self_us": (self_ns / calls * 1e-3, "us/call"),
            "oracle.oracle_schmidt_us": us("oracle.oracle_schmidt"),
            "schmidt.reconstruct_us": us("schmidt.reconstruct"),
        })
        counts = dict(self.pool.counts(), **self.tally.counts())
        for key in ("decompose.diagonal_n", "decompose.nondiagonal_n",
                    "decompose.rank1_n", "decompose.fail.orthonormal_n",
                    "decompose.fail.order_n", "decompose.fail.reconstruct_n",
                    "decompose.fail.mismatch_n"):
            out[key] = (counts[key], "count")
        return out
