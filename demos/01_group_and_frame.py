"""Tour of the group structure and the left-invariant frame.

The underlying space is R^7 with coordinates (t1, x1, y1, z1, x, y, z):
a quaternion q and an imaginary quaternion w.  The product twists the
w-slot by the imaginary part of q0 * conj(q), dilations scale q once
and w twice, and Lebesgue measure is bi-invariant Haar measure.

Run:  python demos/01_group_and_frame.py
"""

import numpy as np

from qheis import (
    commutator_audit,
    dilation,
    group_inv,
    group_mul,
    sub_laplacian,
    ubar_field,
)
from qheis.frame import frame_rows
from qheis.jets import haar_jacobian_audit

rng = np.random.default_rng(0)

# -- the group law ----------------------------------------------------------

g = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
h = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
print("g o h           =", group_mul(g, h))
print("h o g           =", group_mul(h, g))
print("g o g^{-1}      =", group_mul(g, group_inv(g)))

# the commutator of two horizontal directions is purely vertical
comm = group_mul(group_mul(g, h), group_inv(group_mul(h, g)))
print("group commutator:", comm, " (lands in the w-slot)")

# dilations are automorphisms with homogeneous dimension 10
lam = 1.7
gh = group_mul(g, h)
print("\ndelta(g o h) - delta(g) o delta(h) =",
      np.max(np.abs(dilation(lam, gh) - group_mul(dilation(lam, g), dilation(lam, h)))))
print("Haar Jacobian audit (5 random translations):",
      np.max([haar_jacobian_audit(rng.uniform(-2, 2, 7)) for _ in range(5)]))

# -- the frame --------------------------------------------------------------

p = np.array([0.5, -0.3, 0.2, 0.1, 0.4, -0.6, 0.7])
print("\nhorizontal frame at p (rows = fields, columns = coordinate coefficients):")
print(np.array2string(frame_rows(p)[0], precision=3, suppress_small=True))

worst = np.max([
    commutator_audit(a, b, rng.uniform(-2, 2, (50, 7)))
    for a in range(4)
    for b in range(a + 1, 4)
])
print("commutator audit over 50 random points:", f"{worst:.3e}",
      " ([X_a, X_b] = -2 sum_s omega_s(X_a, X_b) xi_s)")

# -- the sub-Laplacian on the reference bubble ------------------------------

ubar = ubar_field()
print("\nsub-Laplacian of the bubble at the origin:", sub_laplacian(ubar, np.zeros(7))[0])
print("equals -u(0)^{3/2} = -1024^{3/2}        :", -(1024.0**1.5))
