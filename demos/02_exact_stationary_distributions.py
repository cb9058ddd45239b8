# Solve small instances to numerical stationarity and check two closed forms:
#  - M/M/2 with unit rates has E[Z] = 4/3,
#  - with nu = mu the death rate at level z is exactly mu*z, so the
#    stationary count is Poisson(r) no matter how many servers there are.

import numpy as np

from hwq import ClassParams, build_config
from hwq.exact import build_generator, enumerate_states, expectation, poisson_pmf, stationary
from hwq.policy import NONPREEMPTIVE, PREEMPTIVE

# --- M/M/2 ------------------------------------------------------------------
cfg = build_config([ClassParams(1.0, 1.0, 0.0)], r=1.0, a=1.0)  # N = 2
gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K=60))
sv = stationary(gen)
ez = expectation(sv.pi, gen.idx.z.sum(axis=1))
print(f"M/M/2: E[Z] = {ez:.12f} (closed form 4/3 = {4/3:.12f})")
print(f"       solver residual = {sv.residual:.2e}, truncation deficit ~ {sv.deficit_estimate:.2e}")

# --- Poisson at nu = mu ------------------------------------------------------
r = 25.0
cfg = build_config([ClassParams(1.0, 1.0, 1.0)], r, a=1.0)
K = 85
gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
sv = stationary(gen)
pois = poisson_pmf(r, np.arange(K + 1))
tv = 0.5 * (np.abs(sv.pi - pois).sum() + max(0.0, 1.0 - pois.sum()))
print(f"\nnu = mu, r = {r:g}: total variation vs Poisson({r:g}) = {tv:.2e}")

# --- Which solver stationary picks ------------------------------------------
# Block GTH over population levels while its work n * w^2 stays small (w is
# the widest level).  For wide levels, the odd levels are eliminated exactly
# (an odd-level state jumps only to even levels) and Jacobi-preconditioned
# BiCGSTAB solves the chain censored to the even levels.
classes = [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)]
for kind, r, K in ((PREEMPTIVE, 9.0, 40), (NONPREEMPTIVE, 16.0, 50)):
    gen = build_generator(enumerate_states(build_config(classes, r, 1.0), kind, K))
    sv = stationary(gen)
    print(f"\n{kind}, r={r:g}, K={K} ({gen.idx.n_states} states): solver {sv.method}"
          f" ({sv.iterations} iterations), residual {sv.residual:.2e}")
