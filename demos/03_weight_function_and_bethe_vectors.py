"""The universal weight function in both coordinate models, and the
eigenvectors it produces at scheme points.

The weight function is a vector-valued polynomial in the coordinates a;
evaluating it at a scheme point gives a joint eigenvector of the family
with eigenvalues h (and it is annihilated by the raising operator).  Its
monomial form and its separated form agree after the rational change of
variables (u, y).
"""

import numpy as np

from gaudinlab import (
    ProblemInstance,
    Tolerances,
    bethe_vector,
    build_gaudin,
    change_of_variables,
    joint_spectrum,
    match_spectrum_to_scheme,
    separated_form_value,
    weight_function,
)
from fractions import Fraction as F

inst = ProblemInstance([1, 1, 1], 1, [0, 1, 2])
sysd = build_gaudin(inst)

# the coordinate change itself
x = [1.0, 2.0, -0.5]
u, y = change_of_variables(inst, x)
print("x =", x, "-> u =", u, " y =", [f"{v.real:.6f}{v.imag:+.1e}j" for v in y])

# weight function at generic exact coordinates: a vector of polynomials in a
wv = weight_function(inst, [F(1, 3)])
print("\nweight function at a = (1/3):")
for j, c in wv.coeffs:
    print("  monomial", j, "coefficient", c)

# the two models agree at random points
rng = np.random.default_rng(2)
for _ in range(3):
    xr = rng.normal(size=3) + 1j * rng.normal(size=3)
    mono = sum(complex(c) * np.prod([xr[s] ** js for s, js in enumerate(j)])
               for j, c in wv.coeffs)
    sep = separated_form_value(inst, [F(1, 3)], xr)
    print(f"monomial {mono:+.10f}  separated {sep:+.10f}  "
          f"diff {abs(mono - sep):.2e}")

# Bethe vectors at the actual spectrum points span the quotient; the float
# points pair with the float system built on the same frame.  One Tolerances
# reaches every float-lane gate of the run, as it does in the command line.
tol = Tolerances()
spec = joint_spectrum(list(sysd.H_L), seed=1, tol=tol)
rep = match_spectrum_to_scheme(inst, spec, tol=tol)
finst = inst.to_float()
fsys = build_gaudin(finst, sysd.frame)
print(f"\n{len(rep.points)} spectrum points on the quotient:")
vecs = []
for p in rep.points:
    bv = bethe_vector(finst, fsys, p, tol=tol)
    roots = np.roots([1.0] + [complex(v) for v in p.a])
    print(f"  h = ({', '.join(f'{v.real:+.6f}' for v in p.h)})  "
          f"root of p: {roots[0].real:+.6f}  "
          f"eigen residual {max(bv.eigen_residuals):.2e}  "
          f"raising residual {bv.e12_residual:.2e}")
    vecs.append(np.asarray(bv.omega_L, dtype=complex))
W = np.stack(vecs, axis=1)
sv = np.linalg.svd(W, compute_uv=False)
print("singular values of the eigenvector matrix:", np.round(sv, 6),
      "-> rank", int(np.sum(sv > 1e-10 * sv[0])), "= dim Sing L", sysd.dim_sing_l)
