"""Recovering a hidden translation and dilation from the quotient alone.

Plant a bubble moved by an unknown group element and concentration,
then hand the search only the field and a rough starting guess.  A
damped Newton ascent finds the field's peak, which seeds the center and
the concentration; BFGS then descends over the center.  Its objective
de-transforms by the candidate motion, symmetrizes over a few
origin-fixing rotations, and scores the bi-radial profile; the
symmetrization defect supplies the curvature that the bare quotient
(which is invariant along the family) cannot.

Run:  python demos/06_bubble_recovery.py
"""

import math
import time

import numpy as np

from qheis.extremals import FamilyParams, dilate_field, translate_field, ubar_field
from qheis.quadrature import fs_quotient, minimize_quotient

ubar = ubar_field()

g0 = np.array([0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.3])
nu = 1.44
target = translate_field(dilate_field(ubar, math.sqrt(nu)), g0)
print("planted:   nu =", nu, " center =", g0)

start = FamilyParams(nu=1.1, center=g0 + 0.1)
print("start:     nu =", start.nu, " center =", np.asarray(start.center))

t0 = time.perf_counter()
result = minimize_quotient(start, target, seed=0)
dt = time.perf_counter() - t0

center = np.asarray(result.params.center)
print(f"\nrecovered: nu = {result.params.nu:.12f}  center = {center}")
print(f"errors:    nu {abs(result.params.nu / nu - 1.0):.2e}   "
      f"center {np.max(np.abs(center - g0)):.2e}")

ref = fs_quotient(ubar).quotient
print(f"\nobjective value at the optimum : {result.value:.12f}")
print(f"quotient of the centered bubble: {ref:.12f}")
print(f"relative gap                   : {abs(result.value / ref - 1.0):.2e}")
print(f"\nconverged = {result.converged}: {result.message}")
print(f"evaluations = {result.nfev} (peak jet calls plus objective-and-gradient "
      f"calls)  descents = {result.restarts}  wall = {dt:.2f}s")
