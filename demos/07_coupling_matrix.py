"""The 6x6 coupling matrix of the divergence-identity blocks.

Pairing the three divergence covectors D_i and the three aggregates A_i
against each other produces a quadratic form with a 6x6 coefficient
matrix over the common denominator 3.  Its two-dimensional kernel and
strictly positive remaining spectrum are what turn the integral
identity into an inequality, so both are pinned down here numerically.

Run:  python demos/07_coupling_matrix.py
"""

import math

import numpy as np

from qheis.audit import QMATRIX, Q_SPECTRUM, q_spectrum, quadratic_form_audit

print("3 * Q (integer entries):")
print(np.array2string(3.0 * QMATRIX, formatter={"float_kind": lambda v: f"{v:4.0f}"}))

print("\neigenvalues (computed)   :", np.round(q_spectrum(), 12))
print("eigenvalues (closed form):", Q_SPECTRUM)
print("  = {0, 0, 2(2-sqrt2), 2(2+sqrt2), 10, 10}")
print("deviation:", np.max(np.abs(q_spectrum() - Q_SPECTRUM)))

rng = np.random.default_rng(4)
worst = quadratic_form_audit(rng.standard_normal((200, 6, 4)))
print("\nmatrix route vs cyclic-sum route over 200 random block vectors:",
      f"{worst:.3e}")

# the kernel: equal D-blocks with A = -2/5 D... read it off the eigenvectors
vals, vecs = np.linalg.eigh(QMATRIX)
print("\nkernel basis (columns):")
print(np.array2string(vecs[:, :2], precision=4, suppress_small=True))
for k in range(2):
    v = np.outer(vecs[:, k], np.array([1.0, 0, 0, 0]))
    print(f"form on kernel vector {k}: {float(np.einsum('ij,ia,ja->', QMATRIX, v, v)):.3e}")
