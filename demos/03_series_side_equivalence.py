"""The power-series side: weighted norms, the isometry, and the identity.

Substituting w = e^{2cz} turns coefficient vectors into power series whose
weighted norms match the plain coefficient norms exactly.  All magnitudes
are carried as logarithms: the weights e^{2a(n+1)^2} pass 1e308 before
n = 20 at a = 1.
"""

import numpy as np

from gauss_cis.fock import (
    FockSeries,
    consistency_identity,
    fock_norm,
    fock_norm_quadrature,
    to_fock,
)
from gauss_cis.gauss_space import CoefficientVector
from gauss_cis.lattice import GaussianParam

c = GaussianParam(0.7, 1.3)

print("== norm split is an isometry ==")
rng = np.random.default_rng(1)
vals = rng.standard_normal(33) + 1j * rng.standard_normal(33)
coeffs = CoefficientVector(-16, vals)
f_minus, c0, f_plus = to_fock(c, coeffs)
total = (np.exp(fock_norm(f_minus, c.a)) + abs(c0) ** 2
         + np.exp(fock_norm(f_plus, c.a)))
print(f"|coeffs|^2 = {coeffs.norm() ** 2:.12f}")
print(f"split sum  = {total:.12f}")

print()
print("== closed-form weights vs numerical quadrature ==")
for a in (0.25, 0.5, 1.0):
    for n in (0, 3, 5):
        series = FockSeries(np.array([-np.inf] * n + [0.0]), np.zeros(n + 1))
        closed = np.exp(fock_norm(series, a))
        quad = fock_norm_quadrature(series, a)
        print(f"a={a:4.2f} degree {n}: closed {closed:.6e}  "
              f"quadrature {quad:.6e}  rel {abs(quad - closed) / closed:.1e}")

print()
print("== the log-scale of the weights ==")
for n in (5, 10, 20, 40):
    series = FockSeries(np.array([-np.inf] * n + [0.0]), np.zeros(n + 1))
    note = "  (beyond double range as a plain number)" if n >= 20 else ""
    print(f"degree {n:3d}: log norm^2 = {fock_norm(series, 1.0):9.1f}{note}")

print()
print("== two evaluation routes agree ==")
coeffs = CoefficientVector(1, (rng.standard_normal(16) + 1j * rng.standard_normal(16)))
lams = np.array([-4.0, -1.0, 0.5, 3.0])
lhs, rhs, gap = consistency_identity(c, coeffs, lams)  # one call, one entry per node
for lam, value, g in zip(lams, lhs, gap):
    print(f"lambda={lam:5.1f}: |f+| = {abs(value):.6e}  relative gap {g:.1e}")
