# The two joint-chain constructions, with orderings asserted at every event.
#
# 1. Infinite-server comparison (needs nu <= mu): per-class counters G_i run
#    an M/M/inf system on shared arrivals with matched departures, so
#    G_i(t) <= Z_i(t) pathwise while G_i is Poisson(rho_i r) in steady state.
# 2. Monotone comparison: a shadow with smaller abandonment rates nu' <= nu
#    dominates the primary coordinatewise (Z' >= Z, psi' >= psi).

import random

from hwq import ClassParams, build_config
from hwq.coupling import (
    InfServerChain,
    poisson_fit_pvalue,
    run_infserver_coupled,
    run_monotone_coupled,
)
from hwq.policy import FIFO
from hwq.simulate import RngStream

cfg = build_config([ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)], 25.0, 1.0)

rep = run_infserver_coupled(cfg, FIFO, n_events=600_000, rng=RngStream(7, 0),
                            warmup_events=20_000, g_sample_dt=8.0)
# a violated ordering raises OrderingViolation, so a report means none failed
print(f"infinite-server coupling, FIFO, r=25: {rep.ordering_checks} ordering "
      f"checks held")
for i in range(2):
    p = poisson_fit_pvalue([g[i] for g in rep.g_samples], cfg.rho_r[i])
    print(f"  class {i}: time-avg G = {rep.g_time_avg[i]:7.4f} "
          f"(target rho*r = {cfg.rho_r[i]}), Poisson fit p = {p:.3f}")
    print(f"           time-avg Z = {rep.z_time_avg[i]:7.4f} >= G on every path")

# shadow with abandonment switched off dominates the primary
rep = run_monotone_coupled(cfg, nu_prime=[0.0, 0.0], kind=FIFO,
                           n_events=600_000, rng=RngStream(7, 1),
                           warmup_events=20_000)
print(f"\nmonotone coupling (nu' = 0), FIFO, r=25: {rep.ordering_checks} "
      f"ordering checks held")
for i in range(2):
    print(f"  class {i}: time-avg Z = {rep.z_time_avg[i]:7.4f}  "
          f"Z' = {rep.z_prime_time_avg[i]:7.4f}")

# the rate table behind the infinite-server construction, at one state:
# the runner's own chain, with G matched to in-service partners first
chain = InfServerChain(cfg, "nonpreemptive_priority", random.Random(0))
chain.state.set_counts([20, 14], [17, 13])
chain.g[:] = [19, 11]
rates = chain.rates()
names = ("arrival", "shared_service", "shared_queue", "other_only", "z_service", "z_queue")
print("\njoint rates at z=(20,14), psi=(17,13), G=(19,11):")
for i in range(2):
    row = {name: rates[getattr(InfServerChain, name.upper()) * cfg.n_classes + i]
           for name in names}
    print(f"  class {i}: {row}")
print("per class, with shared = shared_service + shared_queue and z_only =\n"
      "z_service + z_queue: shared + other_only = mu*G, shared + z_only = mu*psi + nu*q")
