"""The bubble family and its equation.

u(g) = 2^10 [(1+|q|^2)^2 + |w|^2]^{-2} solves  Delta_H u + u^{3/2} = 0
on the whole group, and the equation is preserved by left translation
and by the weighted dilation u -> lam^4 u(delta_lam g).  This script
evaluates the residual directly from the hand-written jets.

Run:  python demos/02_entire_solutions.py
"""

import numpy as np

from qheis import dilate_field, group_inv, pde_residual, translate_field, ubar_field
from qheis.frame import frame_jets

rng = np.random.default_rng(1)
ubar = ubar_field()

pts = rng.uniform(-3.0, 3.0, (2000, 7))


def report(u, label):
    fj = frame_jets(u, pts)  # one frame pass: the residual and the value read it
    rel = np.abs(pde_residual(fj)) / fj.value**1.5
    print(f"{label:34s} max relative residual {np.max(rel):.3e}")


report(ubar, "centered bubble")

g0 = np.array([0.8, -0.4, 0.3, 0.1, 1.2, -0.5, 0.9])
report(translate_field(ubar, g0), "translated by g0")
report(dilate_field(ubar, 0.3), "dilated, lam = 0.3")
report(dilate_field(translate_field(ubar, g0), 2.4), "translated then dilated, lam = 2.4")

# the translated bubble peaks at the inverse of the translation parameter
moved = translate_field(ubar, g0)
peak = group_inv(g0)
print("\nvalue of the translated bubble at inv(g0):", moved(peak), " (max is 1024)")

# amplitude bookkeeping of the dilation
lam = 2.4
print("dilated amplitude lam^4 * 1024 =", lam**4 * 1024.0,
      " observed:", dilate_field(ubar, lam)(np.zeros(7)))
