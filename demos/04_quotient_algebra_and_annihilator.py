"""The commuting algebra on the singular subspace, its quotient, and the
annihilator of the quotient kernel.

The Shapovalov form on the singular subspace can degenerate; its radical
cuts the quotient on which the irreducible-module family acts.  The
algebra generated by the Hamiltonians has dimension equal to the space it
acts on, the kernel of the induced quotient map is an ideal, and its
annihilator has exactly the quotient dimension.

Sing M is the regular representation of this commutative algebra, so a
vector v with (algebra) v = Sing M exists, and here the all-ones vector is
one: the F v span Sing M.  Then f -> f v loses nothing, so the kernel and
the annihilator are computed on the vectors F v, not on the matrices F,
and are still handed back as matrices, which the last check multiplies.
"""

import numpy as np

from gaudinlab import (
    ProblemInstance,
    annihilator_ideal,
    bethe_algebra_basis,
    build_gaudin,
    induced_map_kernel,
    schubert_dimension,
)
from gaudinlab.numcore import identity, matmul, max_abs, rank_of

for m, l in [([1, 1, 1], 1), ([1, 1, 1, 1], 2), ([1, 2], 2), ([1, 3], 2)]:
    inst = ProblemInstance(m, l, [k + 1 if k != 2 else "1/2" for k in range(len(m))]
                           if len(m) > 2 else ["0", "1"])
    sysd = build_gaudin(inst)
    print(f"=== m = {m}, l = {l} ===")
    print("  dim Sing M =", sysd.dim_sing_m,
          " dim Sing L =", sysd.dim_sing_l,
          " tensor multiplicity =", schubert_dimension(m, l))

    alg_m = bethe_algebra_basis(list(sysd.H_sing)) if sysd.dim_sing_m else []
    alg_l = bethe_algebra_basis(list(sysd.H_L)) if sysd.dim_sing_l else []
    print("  dim algebra on Sing M =", len(alg_m),
          " on Sing L =", len(alg_l))

    if alg_m:
        ones = identity(sysd.dim_sing_m).sum(axis=1, keepdims=True)
        images = [matmul(F, ones)[:, 0] for F in alg_m]
        print("  rank of the F v, v = (1, ..., 1):", rank_of(np.stack(images, axis=1)),
              "(= dim Sing M: v is cyclic)")

    ker = induced_map_kernel(alg_m, sysd.shq.sh) if alg_m else []
    J = annihilator_ideal(alg_m, ker) if alg_m else []
    print("  dim quotient-map kernel =", len(ker),
          " dim annihilator =", len(J), "(= dim Sing L)")

    # the annihilator annihilates: every product is literally zero
    worst = max((max_abs(f @ g) for f in J for g in ker), default=0.0)
    print("  worst annihilation residual:", worst)
    print()
