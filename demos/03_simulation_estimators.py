# Jump-chain simulation with the two steady-state estimators.
#
# Regenerative estimation splits the trajectory at visits to the empty state
# (i.i.d. cycles, clean CIs, only viable at small r); batch means is the
# workhorse in heavy traffic where the empty state is effectively never seen.

import math

from hwq import ClassParams, build_config
from hwq.policy import FIFO, PREEMPTIVE
from hwq.simulate import RngStream, batch_means_multi, regenerative_estimate, run


def z_total(z, psi, cfg):
    return float(sum(z))


mm2 = build_config([ClassParams(1.0, 1.0, 0.0)], r=1.0, a=1.0)  # M/M/2, E[Z]=4/3

est_r = regenerative_estimate(mm2, PREEMPTIVE, {"z": z_total}, n_cycles=20_000,
                              rng=RngStream(1, 0))["z"]
print(f"regenerative  E[Z] = {est_r.value:.5f} +- {est_r.half_width:.5f} "
      f"({est_r.cycles_or_batches} cycles)")

est_b = batch_means_multi(mm2, PREEMPTIVE, {"z": z_total}, n_batches=20,
                          events_per_batch=30_000, warmup_events=2_000,
                          rng=RngStream(1, 1))["z"]
print(f"batch means   E[Z] = {est_b.value:.5f} +- {est_b.half_width:.5f} "
      f"({est_b.cycles_or_batches} batches)")
print(f"truth 4/3   = {4/3:.5f}")

# FIFO at r=100: time-averaged scaled queue and the positive-part MGF
cfg = build_config([ClassParams(0.5, 1.0, 0.0), ClassParams(1.0, 2.0, 0.0)], 100.0, 1.0)


def q_hat(z, psi, c):
    return (sum(z) - sum(psi)) / c.sqrt_r


def exp_zhat_plus(z, psi, c):
    s = sum(max(zi - ri, 0.0) for zi, ri in zip(z, c.rho_r)) / c.sqrt_r
    return math.exp(0.1 * s)


summary = run(cfg, FIFO, n_events=400_000, warmup_events=20_000,
              rng=RngStream(2, 0), functionals={"q_hat": q_hat, "mgf+": exp_zhat_plus})
print(f"\nFIFO r=100 over {summary.events} events "
      f"(time span {summary.sim_time:.0f}):")
for name, value in summary.time_averages.items():
    print(f"  time-avg {name} = {value:.5f}")

# the same stream reproduces the trajectory bit for bit
again = run(cfg, FIFO, n_events=400_000, warmup_events=20_000,
            rng=RngStream(2, 0), functionals={"q_hat": q_hat, "mgf+": exp_zhat_plus})
print("bit-exact replay:", summary == again)
