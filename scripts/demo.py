"""Walk through the library's main constructions and print their data.

Run from the repository root:  python scripts/demo.py
"""

import json
import math

import numpy as np

import qschmidt as q
from qschmidt import jsonio


def show(title, obj):
    print(f"--- {title}")
    print(json.dumps(obj, indent=None))
    print()


def main():
    r12 = 1.0 / math.sqrt(2.0)

    # Both decomposition branches on hand-picked states.
    diag = q.make_state(math.sqrt(1 / 3), math.sqrt(1 / 6),
                        math.sqrt(1 / 6), -math.sqrt(1 / 3))
    nondiag = q.make_state(math.sqrt(1 / 3), math.sqrt(1 / 3),
                           math.sqrt(1 / 6), -math.sqrt(1 / 6))
    show("diagonal-branch decomposition", jsonio.schmidt_to_obj(q.schmidt(diag)))
    show("non-diagonal-branch decomposition",
         jsonio.schmidt_to_obj(q.schmidt(nondiag)))

    # The wrong branch, forced: A-side vectors stop being orthogonal.
    wrong = q.schmidt_diagonal(nondiag, check=False)
    overlap = abs(np.vdot(wrong.basis_a[0], wrong.basis_a[1]))
    print(f"--- diagonal formula forced onto a non-diagonal state")
    print(f"A-side overlap magnitude: {overlap} (a valid decomposition needs 0)")
    print()

    # An entangled state orthogonal to |00>, beyond the Bell family.
    pe = q.construct_pe_nondiagonal(r12, 0.5, 0.5)
    show("entangled partner of |00>", jsonio.set_to_obj(pe))

    # A full basis with two maximally entangled members, verified both ways.
    basis = q.construct_mmee_nondiagonal(0.4, -0.9, math.sqrt(3 / 8),
                                         math.sqrt(1 / 8))
    report = q.verify_set(basis.states)
    show("two-maximal basis verification", jsonio.report_to_obj(report))

    # Rank-2 mixed state with prescribed eigenstates, and its reduction.
    rho = q.spectral_mix([q.make_state(1, 0, 0, 0), pe.states[1]], [0.3, 0.7])
    show("rank-2 mixed state, reduced to subsystem A",
         jsonio.rows_to_obj(q.reduce_a(rho).tolist()))

    # Completing any three orthonormal product states never yields
    # entanglement; show one completion.
    triple = q.construct_ppp("a-side", (q.PLUS, q.MINUS))
    completion, conc = q.complete_ppp(triple)
    print("--- completion of a product triple")
    state = [[z.real, z.imag] for z in completion.tolist()]
    print(f"state: {state}  concurrence: {conc}")


if __name__ == "__main__":
    main()
