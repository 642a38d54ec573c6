"""Two instances small enough to follow by hand, end to end.

E1: two spin-1/2 marked points, one excitation (m = (1,1), l = 1).
E3: two spin-1 marked points, two excitations (m = (2,2), l = 2).

For n = 2 the commuting family on the singular subspace is pinned by two
linear identities (the Hamiltonians sum to zero, and their z-weighted sum
is l(sum(m)+1-l) times the identity), so every number below has a closed
form to check against.  Polynomials print as tuples of ascending
coefficients, the form the z-tables and the stacked scheme stages use; D_h
is the matrix dh_matrices(inst, [h])[0] on such coefficient vectors.
"""

from fractions import Fraction as F

from gaudinlab import (
    ProblemInstance,
    a_of_h,
    build_gaudin,
    exponents_at,
    h_of_a,
    operator_from_kernel_pair,
    ptilde_solve,
    residual_system,
    wronskian_check,
)
from gaudinlab.opscheme import dh_matrices, h_from_numerator, p_of_a, ptilde_of

for label, m, l in [("E1", [1, 1], 1), ("E3", [2, 2], 2)]:
    inst = ProblemInstance(m, l, [0, 1])
    print(f"=== {label}: m = {m}, l = {l}, z = (0, 1), "
          f"lt = {inst.ltilde} ===")

    sysd = build_gaudin(inst)
    print("dim Sing M =", sysd.dim_sing_m, " dim Sing L =", sysd.dim_sing_l)

    # the 1x1 restricted Hamiltonians; closed form l*lt/(z1 - z2)
    h = tuple(H[0, 0] for H in sysd.H_sing)
    print("restricted Hamiltonians:", h,
          " (closed form:", F(l * inst.ltilde, -1), "and its negative)")

    # scheme coordinates both ways
    a = a_of_h(inst, h)
    print("kernel polynomial coefficients a =", a,
          "-> p =", p_of_a(a))
    print("h recovered from a:", h_of_a(inst, a))
    print("defining residuals at a:", residual_system(inst, a))

    # the second kernel polynomial, with its x^l coefficient pinned to 0
    atilde = ptilde_solve(inst, h)
    pt = ptilde_of(inst, atilde)
    print("second kernel polynomial:", pt)

    # both really are annihilated: D_h on ascending coefficient vectors
    D = dh_matrices(inst, [h])[0]
    print("operator applied to p:", (D[:, :l + 1] @ p_of_a(a)).tolist(),
          " to ptilde:", (D @ pt).tolist())

    # exponent data at the marked points and at infinity
    for s in range(2):
        print(f"exponents at z_{s + 1}:", exponents_at(inst, h, s))
    print("exponents at infinity:", exponents_at(inst, h, None))

    # the pair sits on the cycle: Wronskian matches the prescribed divisor
    print("Wronskian residual:", wronskian_check(inst, atilde, a))

    # rebuild the operator from its kernel and recover h
    b0, b1, b2 = operator_from_kernel_pair(inst, pt, p_of_a(a))
    print("kernel-pair operator: b0 =", b0, " b1 =", b1, " b2 =", b2)
    print("h from b2 residues:", h_from_numerator(inst, b2))
    print()
