"""The sphere picture and the Kelvin transform.

The Cayley pair identifies the group with the unit sphere of H^2 minus
one pole.  Composing the two directions is the identity; the associated
inversion sigma generates, together with translations and dilations,
the full conformal group, and its Kelvin transform maps solutions of
the equation to solutions away from the singular point.

Run:  python demos/04_cayley_kelvin.py
"""

import numpy as np

from qheis.extremals import (
    cayley_contact_factor,
    cayley_forward_batch,
    cayley_inverse_batch,
    kelvin,
    pde_residual,
    sigma,
    ubar_field,
)
from qheis.frame import frame_jets

rng = np.random.default_rng(3)

# -- roundtrips ---------------------------------------------------------------

pts = rng.uniform(-2.0, 2.0, (500, 7))
worst = np.max(np.abs(cayley_forward_batch(*cayley_inverse_batch(pts)) - pts))
print("group -> sphere -> group roundtrip over 500 points:", f"{worst:.3e}")

# a point of the unit sphere in H^2 is a pair of (N, 4) halves (q, p)
q, p = rng.standard_normal((2, 1, 4))
scale = 1.0 / np.sqrt(np.sum(q * q) + np.sum(p * p))
q, p = q * scale, p * scale
tq, tp = cayley_inverse_batch(cayley_forward_batch(q, p))
print("sphere -> group -> sphere roundtrip:",
      f"{np.max(np.abs(np.concatenate([tq - q, tp - p]))):.3e}")

print("contact factor at the origin:", cayley_contact_factor(np.zeros(7)),
      " (8 / [(1+|q|^2)^2 + |w|^2])")

# -- the inversion ------------------------------------------------------------

print("\nsigma o sigma deviation over 500 points:",
      f"{np.max(np.abs(sigma(sigma(pts)) - pts)):.3e}")

# -- Kelvin preserves solutions ----------------------------------------------

ubar = ubar_field()
ku = kelvin(ubar)
far = pts[np.einsum("ni,ni->n", pts[:, :4], pts[:, :4]) > 0.25]
fj = frame_jets(ku, far)  # one frame pass: the residual and the value read it
rel = np.abs(pde_residual(fj)) / fj.value**1.5
print(f"Kelvin-transformed bubble: residual {np.max(rel):.3e} on {far.shape[0]} points")

twice = kelvin(ku)
sample = rng.uniform(0.4, 1.5, (20, 7))
print("Kelvin is an involution:",
      f"{np.max(np.abs(twice(sample) / ubar(sample) - 1.0)):.3e}")
