# Jump-chain simulation with the two steady-state estimators.
#
# Regenerative estimation splits the trajectory at visits to a central state,
# z_i = round(rho_i r) with nobody waiting, where the run starts (i.i.d.
# cycles, clean CIs; a cycle grows with r); batch means is the workhorse in
# heavy traffic.

# A functional takes the per-class count arrays Z and PSI of shape
# (n_states, n_classes) and returns one value per row; the estimators call it
# once per group of batches or cycles on the states visited there.

import numpy as np

from hwq import ClassParams, build_config
from hwq.policy import FIFO, PREEMPTIVE
from hwq.simulate import RngStream, batch_means_multi, regenerative_estimate


def z_total(Z, PSI, cfg):
    return Z.sum(axis=1).astype(float)


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


def q_hat(Z, PSI, c):
    return (Z - PSI).sum(axis=1) / c.sqrt_r


def exp_zhat_plus(Z, PSI, c):
    return np.exp(0.1 * np.maximum(Z - np.asarray(c.rho_r), 0.0).sum(axis=1) / c.sqrt_r)


fns = {"q_hat": q_hat, "mgf+": exp_zhat_plus}
ests = batch_means_multi(cfg, FIFO, fns, n_batches=20, events_per_batch=19_000,
                         warmup_events=20_000, rng=RngStream(2, 0))
print("\nFIFO r=100, batch means over 20 x 19,000 events after 20,000 warm-up:")
for name, est in ests.items():
    print(f"  {name} = {est.value:.5f} +- {est.half_width:.5f}")

# the same stream reproduces the trajectory bit for bit
again = batch_means_multi(cfg, FIFO, fns, n_batches=20, events_per_batch=19_000,
                          warmup_events=20_000, rng=RngStream(2, 0))
print("bit-exact replay:", ests == again)
