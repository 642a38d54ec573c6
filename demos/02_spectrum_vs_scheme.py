"""Joint spectra versus scheme points on a four-point instance.

Builds the commuting family for m = (1,1,1,1), l = 2, decomposes the joint
spectrum on both the singular subspace and its quotient, verifies every
point against the defining polynomial system, and shows that the
multiplicity-weighted counts do not move when z moves.
"""

import numpy as np

from gaudinlab import (
    ProblemInstance,
    build_gaudin,
    grothendieck_weights,
    joint_spectrum,
    match_spectrum_to_scheme,
)

inst = ProblemInstance([1, 1, 1, 1], 2, ["0", "1", "1/2", "-3"])
sysd = build_gaudin(inst)
print("dims: weight space", sysd.shq.sing.shape[0], " Sing M", sysd.dim_sing_m,
      " Sing L (= tensor multiplicity)", sysd.dim_sing_l)

for space, mats, dim in [("Sing M", sysd.H_sing, sysd.dim_sing_m),
                         ("Sing L", sysd.H_L, sysd.dim_sing_l)]:
    spec = joint_spectrum(list(mats), seed=7)
    rep = match_spectrum_to_scheme(inst, spec)
    print(f"\n--- {space}: {len(rep.points)} points, "
          f"total multiplicity {rep.total_multiplicity} (= dim {dim}) ---")
    for p in rep.points:
        htxt = ", ".join(f"{v.real:+.6f}" for v in p.h)
        nums = {k: v for k, v in p.residuals.items()
                if isinstance(v, float) and v != float("inf")}
        # a point whose operator admits only ONE polynomial kernel element
        # records an infinite second-kernel residual; on the singular
        # subspace those are precisely the points killed in the quotient
        tag = "" if p.atilde is not None else "  [no second kernel polynomial]"
        print(f"  h = ({htxt})  mult = {p.multiplicity}  "
              f"worst residual = {max(nums.values()):.2e}{tag}")

# quotient points weighted by inverse Jacobians: the induced pairing is
# symmetric and the weighted power sums reproduce operator traces
specL = joint_spectrum(list(sysd.H_L), seed=7)
repL = match_spectrum_to_scheme(inst, specL)
if repL.all_simple:
    ws = grothendieck_weights(inst, repL.points)
    print("\npoint weights:", [f"{w.real:.6f}" for w in ws])

for s in range(inst.n):
    tr = sum(complex(sysd.H_L[s][i, i]) for i in range(sysd.dim_sing_l))
    acc = sum(p.multiplicity * p.h[s] for p in repL.points)
    print(f"trace check H_{s + 1}: spectrum sum {acc.real:+.8f} "
          f"vs trace {tr.real:+.8f}")

# counts are stable when the marked points move
print("\nmoving z:")
rng = np.random.default_rng(11)
for trial in range(3):
    z = rng.uniform(-3, 3, size=4)
    while min(abs(z[i] - z[j]) for i in range(4) for j in range(i + 1, 4)) < 0.5:
        z = rng.uniform(-3, 3, size=4)
    inst2 = ProblemInstance([1, 1, 1, 1], 2, [complex(v) for v in z])
    s2 = build_gaudin(inst2)
    spec2 = joint_spectrum(list(s2.H_L), seed=13 + trial)
    print(f"  z = {np.round(z, 3)}  ->  total multiplicity "
          f"{sum(m for _, m, _ in spec2)}")
