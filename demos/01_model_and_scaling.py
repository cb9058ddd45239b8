# Configure a two-class system in the square-root staffing regime and look
# at the diffusion-scaled observables.
#
# Servers: N = ceil(r + a*sqrt(r)); loads rho_i = lambda_i/mu_i sum to 1, so
# utilization is 1 - a/(sqrt(r)+a) -> 1 as r grows while spare capacity
# a*sqrt(r) grows too.

import numpy as np

from hwq import ClassParams, build_config, nominal_utilization
from hwq.model import scale_arrays

classes = [ClassParams(lam=0.5, mu=1.0, nu=0.0), ClassParams(lam=1.0, mu=2.0, nu=0.0)]

print("utilization vs scale:")
for r in (25, 100, 400, 1600, 10_000):
    cfg = build_config(classes, r, a=1.0)
    print(f"  r={r:>6}  N={cfg.n_servers:>6}  utilization={nominal_utilization(cfg):.6f}")

cfg = build_config(classes, 100.0, 1.0)
print(f"\nr=100: N={cfg.n_servers}, rho*r={cfg.rho_r}, effective spare capacity={cfg.a_eff}")

# a state with 10 extra class-0 customers: z_hat=(1, 0), workload phi_hat=1;
# the scaling takes one state per row
z, psi = (60, 50), (60, 50)
sc = scale_arrays(np.array([z]), np.array([psi]), cfg)
print(f"state z={z}: z_hat={sc.z_hat[0].tolist()}, phi_hat={sc.phi_hat[0]}, q_hat={sc.q_hat[0]}")

# a non-idling policy keeps sum(psi) = min(N, sum(z)); this state breaks
# that, as one customer waits while a server idles
psi = (59, 50)
print(f"\nnon-idling at z={z}, psi={psi}: {sum(psi) == min(cfg.n_servers, sum(z))}")
