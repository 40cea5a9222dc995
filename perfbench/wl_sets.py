"""`sets` workload: sample, verify, classify and mix every constructible family.

One round samples a batch of one family, then runs `verify_set` and
`classify` on every set and mixes it with seeded weights into a density
matrix that `reduce_a` and `reduce_b` trace down.  Rounds visit the 18
families in a fixed round-robin order; one op is one set.
"""

from __future__ import annotations

import random

import numpy as np

import qschmidt
from common import CHECK_TOL, Record, peak_rss_mb, digest, now_ns

FAMILIES = (
    ("pp", None, None), ("pe", None, "diagonal"), ("pe", None, "nondiagonal"),
    ("ep", None, None), ("ee", None, "diagonal"), ("ee", None, "nondiagonal"),
    ("ppp", None, None), ("ppe", 1, None), ("ppe", 2, None), ("ppe", 3, None),
    ("pppp", None, None), ("ppee", 1, None), ("ppee", 2, None),
    ("ppee", 3, None), ("pm", None, None), ("pmee", None, None),
    ("mmee", None, "diagonal"), ("mmee", None, "nondiagonal"),
)
_WEIGHT_POOL = 64
_ROUND_CAPACITY = 1 << 16


def family_key(set_type, case_id, variant) -> str:
    """Family name as in ``ppe-2`` or ``mmee-diagonal``."""
    return "-".join(str(x) for x in (set_type, case_id, variant) if x is not None)


def sample_span_name(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return "oracle.sample." + family_key(spec.set_type, spec.case_id, spec.variant)


def members(s) -> list:
    """The states of a sampled pair, triple or basis."""
    states = getattr(s, "states", None)
    return list(states) if states is not None else [s.first, s.second]


def expected_pattern(set_type: str) -> str:
    """`classify` labels (P/E, maximally entangled counted as E) implied by
    the family name."""
    return set_type.upper().replace("M", "E")


class Sets:
    name = "sets"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.batch = 4 if smoke else 16

    def setup(self):
        rng = random.Random(self.seed)
        self.weights = {}
        for n in (2, 3, 4):
            rows = []
            for _ in range(_WEIGHT_POOL):
                e = [rng.uniform(0.05, 1.0) for _ in range(n)]
                total = sum(e)
                rows.append([x / total for x in e])
            self.weights[n] = rows
        self.next_weight = 0

    def round_seed(self, r: int) -> int:
        return (self.seed * 1_000_003 + r) & ((1 << 63) - 1)

    def one_round(self, r: int, tracer=None):
        """Run round ``r``.  Returns (busy ns, failed sets, the sets)."""
        set_type, case_id, variant = FAMILIES[r % len(FAMILIES)]
        spec = qschmidt.SampleSpec(set_type=set_type, case_id=case_id,
                                   variant=variant, seed=self.round_seed(r),
                                   count=self.batch)
        sample, verify_set, classify = (qschmidt.sample, qschmidt.verify_set,
                                        qschmidt.classify)
        spectral_mix, reduce_a, reduce_b = (qschmidt.spectral_mix,
                                            qschmidt.reduce_a, qschmidt.reduce_b)
        weights = self.weights
        k = self.next_weight
        if tracer is not None:
            tracer.new_op()
            root = tracer.begin("sets.round")
        out = []
        t0 = now_ns()
        sets = sample(spec)
        for s in sets:
            states = members(s)
            passed = verify_set(states).passed
            pattern = classify(states)
            rho = spectral_mix(states, weights[len(states)][k % _WEIGHT_POOL])
            k += 1
            out.append((passed, pattern, np.trace(reduce_a(rho)),
                        np.trace(reduce_b(rho))))
        busy = now_ns() - t0
        if tracer is not None:
            tracer.end(root)
        self.next_weight = k
        want = expected_pattern(set_type)
        failed = sum(1 for passed, pattern, tr_a, tr_b in out
                     if not (passed and pattern == want
                             and abs(tr_a - 1.0) <= CHECK_TOL
                             and abs(tr_b - 1.0) <= CHECK_TOL))
        failed += self.batch - len(sets)
        return busy, failed, sets

    def run(self, seconds: float) -> dict:
        """Whole round-robin cycles until ``seconds`` have passed; each cycle
        is one window, each round adds its per-set time as a latency."""
        deadline = now_ns() + int(seconds * 1e9)
        rec = Record(_ROUND_CAPACITY)
        failed, r, cycle_ns, cycle_sets = 0, 0, 0, 0
        exact, digests = {}, {}
        while r % len(FAMILIES) or r == 0 or now_ns() < deadline:
            busy, bad, sets = self.one_round(r)
            if r < len(FAMILIES):
                key = family_key(*FAMILIES[r])
                exact[f"sets.sets_n.{key}"] = len(sets)
                digests[f"sets.params.{key}"] = digest([s.params for s in sets])
            failed += bad
            rec.add(busy // self.batch)
            cycle_ns += busy
            cycle_sets += len(sets)
            r += 1
            if r % len(FAMILIES) == 0:
                rec.window(cycle_sets, cycle_ns, len(FAMILIES))
                cycle_ns = cycle_sets = 0
        return {
            "ops": r * self.batch, "failed": failed, "gate_failures": failed,
            "record": rec,
            "peak_rss_mb": peak_rss_mb(),
            "exact": exact,
            "digests": digests,
        }

    def work_once(self, tracer=None):
        """Two round-robin cycles: (busy s, ops, failed, gate failures)."""
        busy = failed = 0
        rounds = 2 * len(FAMILIES)
        for r in range(rounds):
            ns, bad, _ = self.one_round(r, tracer)
            busy += ns
            failed += bad
        return busy * 1e-9, rounds * self.batch, failed, failed

    def layers(self, tracer) -> dict:
        s = tracer.summary()
        us = lambda name: s[name][1] / s[name][0] * 1e-3
        out = {}
        for fam in FAMILIES:
            key = family_key(*fam)
            out["oracle.sample_us." + key] = (
                us("oracle.sample." + key) / self.batch, "us/set")
        for n in (2, 3, 4):
            out[f"oracle.verify_set_us.n{n}"] = (us(f"oracle.verify_set.n{n}"),
                                                 "us/call")
        out["oracle.classify_us"] = (us("oracle.classify"), "us/call")
        for name in ("spectral_mix", "reduce_a", "reduce_b"):
            out[f"mixed.{name}_us"] = (us("mixed." + name), "us/call")
        return out
