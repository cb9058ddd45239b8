# Per-state drift identities, scanned exhaustively over truncated state spaces.
#
# The scaled workload phi_hat = sum_i (z_i - rho_i r)/(mu_i sqrt(r)) satisfies
#
#   (Abar phi_hat)(x) = -min(z_hat, a_eff) - sum_i (nu_i/mu_i) q_hat_i
#
# exactly at every state: each departure moves phi_hat by 1/(mu_i sqrt(r)).
# From this follow the exponential Lyapunov bound (nu = 0) and the two-sided
# abandonment bounds, both checked below with zero tolerance for violations.

from hwq import ClassParams, build_config
from hwq.exact import build_generator, enumerate_states, stationary
from hwq.policy import NONPREEMPTIVE, PREEMPTIVE
from hwq.verify import (
    default_truncation,
    drift_bounds_abandon_check,
    drift_identity_check,
    generator_identity_check,
    lyapunov_pointwise_check,
)

two_ab = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 16.0, 1.0)
two_nu0 = build_config([ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 16.0, 1.0)

# every check takes the truncated generator and returns the rows hwq verify
# writes: label, n_states, violations, residual_or_err, bound_or_slack
gen = build_generator(enumerate_states(two_ab, PREEMPTIVE, default_truncation(two_ab)))
[row] = drift_identity_check(gen)
print(f"drift identity over {row.n_states} states: "
      f"max relative error {row.residual_or_err:.2e}, violations {row.violations}")

gen = build_generator(enumerate_states(two_nu0, NONPREEMPTIVE, 60))
print("\nexponential Lyapunov bound (nu = 0, non-preemptive):")
for theta in (0.1, 0.5, 1.0):
    [row] = lyapunov_pointwise_check(gen, theta)
    print(f"  theta={theta:<4} violations={row.violations} worst slack={row.bound_or_slack:.4f}")

print("\nabandonment drift bounds:")
for row in drift_bounds_abandon_check(build_generator(enumerate_states(two_ab, PREEMPTIVE, 60))):
    print(f"  {row.label}: violations={row.violations} worst slack={row.bound_or_slack:.2e}")

# stationarity makes E_pi[Abar F] vanish for exponential test functions;
# the bound is 1e-8 plus the truncation deficit of the solved pi
print("\ngenerator identity:")
gen = build_generator(enumerate_states(two_ab, PREEMPTIVE, 50))
for row in generator_identity_check(gen, stationary(gen), theta=0.2, k=3.0):
    print(f"  E_pi[Abar {row.label}] = {row.residual_or_err:.2e} (bound {row.bound_or_slack:.2e})")
