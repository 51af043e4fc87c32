"""Reproducing-kernel growth and canonical products over geometric zeros.

Point-evaluation kernels grow like e^{2 phi(w)} / (1 + |w|^2) outside the
unit circle; canonical products over the zero set {e^{2am}} obey a matching
two-sided estimate.  Both are validated by normalized ratios that stay in
empirical brackets on grids avoiding the zeros.
"""

import numpy as np

from gauss_cis.fock import (
    GeneratingProduct,
    LogPolarPoint,
    fock_cis_verdict,
    fock_points_from_sequence,
    g0_estimate_ratio,
    generating_product_perturbed,
    kernel_norm,
    log_distance_to_zeros,
)
from gauss_cis.lattice import GaussianParam, PeriodicPerturbation

a = 0.5

print("== kernel-norm ratio across twenty orders of magnitude ==")
# a LogPolarPoint may hold a whole grid: one call evaluates every point
t = np.array([-10.0, -5.0, 0.0, 2.5, 5.0, 10.0])
log_sq, ratio = kernel_norm(a, LogPolarPoint(t, np.zeros_like(t)))
for row in zip(t, log_sq, ratio):
    print("log|w| = {:6.1f}: log ||k||^2 = {:9.2f}   ratio = {:.4f}".format(*row))
print("the ratio stays within one order of magnitude")

print()
print("== canonical product over the geometric zeros ==")
zeros = GeneratingProduct.unperturbed(a, 80).zero_log_moduli
lm, ang = np.meshgrid(np.arange(a, 21 * a, 0.1), np.arange(0, 2 * np.pi, np.pi / 4), indexing="ij")
grid = LogPolarPoint(lm.ravel(), ang.ravel())
clear = log_distance_to_zeros(grid, zeros) - grid.log_modulus >= np.log(0.1)
ratios = g0_estimate_ratio(a, LogPolarPoint(grid.log_modulus[clear], grid.argument[clear]))
print(f"{len(ratios)} grid points clear of zeros: "
      f"ratio in [{ratios.min():.3f}, {ratios.max():.3f}]")

print()
print("== perturbed zeros keep the lower estimate ==")
deltas = np.array([(0.45 if m % 2 else -0.35) for m in range(1, 80)])
prod = GeneratingProduct.from_deltas(a, deltas, delta_exponent=0.05)
lm = np.arange(a, 21 * a, 0.25)
line = LogPolarPoint(lm, np.full(len(lm), 2.0))
clear = log_distance_to_zeros(line, prod.zero_log_moduli) - lm >= np.log(0.1)
lows = generating_product_perturbed(prod, LogPolarPoint(lm[clear], line.argument[clear]))[2]
print(f"lower-estimate ratio stays above {lows.min():.3f} on the test line")

print()
print("== the modulus-side verdict mirrors the node-side one ==")
c = GaussianParam(a)
for shift in (0.49, 0.5):
    points = fock_points_from_sequence(c, PeriodicPerturbation((shift,)), 24)
    v = fock_cis_verdict(a, points)
    print(f"node shift {shift}: delta* = {v.delta_star:.3f} vs threshold {v.threshold}"
          f" -> passes={v.passes}")
