import dataclasses
import random

import pytest

from hwq.errors import EmptySource, Unsupported
from hwq.model import ClassParams, build_config, validate_macro_state
from hwq.policy import (
    FIFO,
    KINDS,
    NONPREEMPTIVE,
    PREEMPTIVE,
    QUEUE,
    SERVICE,
    init_state,
)
from hwq.simulate import step

TWO_CLASS = [ClassParams(0.5, 1.0, 0.5), ClassParams(1.0, 2.0, 1.0)]


def cfg_with_servers(n_servers, nu=0.0):
    # valid configs have N >= 2; force small N to exercise the policy rules
    classes = [ClassParams(0.5, 1.0, nu), ClassParams(1.0, 2.0, nu)]
    cfg = build_config(classes, 1.0, 1.0)
    if cfg.n_servers != n_servers:
        cfg = dataclasses.replace(cfg, n_servers=n_servers)
    return cfg


def test_init_state_empty():
    cfg = build_config(TWO_CLASS, 16.0, 1.0)
    for kind in KINDS:
        st = init_state(cfg, kind)
        m = st.project()
        assert m.z == (0, 0) and m.psi == (0, 0)
        assert validate_macro_state(m, cfg) == []
    assert not init_state(cfg, FIFO).queue


def test_unknown_kind():
    cfg = build_config(TWO_CLASS, 16.0, 1.0)
    with pytest.raises(Unsupported):
        init_state(cfg, "round_robin")


def fifo_after_arrivals(cfg, labels):
    st = init_state(cfg, FIFO)
    for cls in labels:
        st.apply_arrival(cls)
    return st


def test_fifo_project():
    # arrivals [hi, lo, lo] with 2 servers: first two served
    st = fifo_after_arrivals(cfg_with_servers(2), [1, 0, 0])
    m = st.project()
    assert m.z == (2, 1) and m.psi == (1, 1) and m.q == (1, 0)
    assert list(st.queue) == [0]


def test_preemptive_project_examples():
    cfg = cfg_with_servers(2)
    st = init_state(cfg, PREEMPTIVE)
    st.set_counts([2, 1])
    m = st.project()
    assert m.psi == (1, 1) and m.q == (1, 0)

    cfg4 = cfg_with_servers(4)
    st = init_state(cfg4, PREEMPTIVE)
    st.set_counts([5, 3])
    m = st.project()
    assert m.psi == (1, 3) and m.q == (4, 0)


def test_fifo_arrival_appends():
    st = fifo_after_arrivals(cfg_with_servers(2), [0])
    st.apply_arrival(1)  # a free server takes it
    assert st.project().psi == (1, 1) and not st.queue
    st.apply_arrival(1)
    st.apply_arrival(0)  # all busy: both wait, in arrival order
    assert st.project().psi == (1, 1)
    assert list(st.queue) == [1, 0]


def test_preemptive_arrival_displaces():
    cfg = cfg_with_servers(1)
    st = init_state(cfg, PREEMPTIVE)
    st.set_counts([1, 0])
    st.apply_arrival(1)
    m = st.project()
    assert m.z == (1, 1) and m.psi == (0, 1)  # the low class got pushed out


def test_nonpreemptive_arrival_waits():
    cfg = cfg_with_servers(1)
    st = init_state(cfg, NONPREEMPTIVE)
    st.set_counts([1, 0], [1, 0])
    st.apply_arrival(1)
    m = st.project()
    assert m.psi == (1, 0) and m.q == (0, 1)  # no preemption


def test_fifo_service_completion_promotes_head():
    st = fifo_after_arrivals(cfg_with_servers(2), [1, 0, 0])
    st.apply_departure(1, SERVICE)
    assert not st.queue
    assert st.project().psi == (2, 0)


def test_fifo_abandonment_removes_queued():
    st = fifo_after_arrivals(cfg_with_servers(2), [1, 0, 1, 0, 1])
    st.apply_departure(0, QUEUE, random.Random(0))  # the only queued class 0
    assert list(st.queue) == [1, 1]
    assert st.project().q == (0, 2)


def test_fifo_abandonment_needs_rng():
    # removing the earliest queued customer would change the law of (z, psi)
    st = fifo_after_arrivals(cfg_with_servers(2), [1, 0, 0])
    with pytest.raises(ValueError, match="rng"):
        st.apply_departure(0, QUEUE)
    assert st.project().z == (2, 1)


def test_fifo_uniform_choice_is_seeded():
    # queue [0, 1, 0, 0]: abandonment picks one of three class-0 customers
    cfg = cfg_with_servers(2)
    picks = set()
    for seed in range(40):
        st = fifo_after_arrivals(cfg, [1, 1, 0, 1, 0, 0])
        again = st.copy()
        st.apply_departure(0, QUEUE, random.Random(seed))
        again.apply_departure(0, QUEUE, random.Random(seed))
        assert st.queue == again.queue
        picks.add(tuple(st.queue))
    assert picks == {(1, 0, 0), (0, 1, 0)}  # the first 0 left, or a later one
    # a service completion draws nothing and promotes the head
    rng = random.Random(5)
    before = rng.getstate()
    st = fifo_after_arrivals(cfg, [0, 0, 1, 0])
    st.apply_departure(0, SERVICE, rng)
    assert rng.getstate() == before
    assert st.project().psi == (1, 1) and list(st.queue) == [0]


def test_nonpreemptive_refill_takes_priority():
    cfg = cfg_with_servers(1)
    st = init_state(cfg, NONPREEMPTIVE)
    st.set_counts([2, 1], [1, 0])
    st.apply_departure(0, SERVICE)
    m = st.project()
    assert m.z == (1, 1) and m.psi == (0, 1)  # server takes the high class


def test_empty_source_errors():
    cfg = cfg_with_servers(2)
    for kind in KINDS:
        st = init_state(cfg, kind)
        with pytest.raises(EmptySource):
            st.apply_departure(0, SERVICE)
        with pytest.raises(EmptySource):
            st.apply_departure(0, QUEUE)


def test_preemptive_psi_is_function_of_z():
    # recomputing the allocation from z alone reproduces psi after any run
    cfg = build_config(TWO_CLASS, 9.0, 1.0)
    rng = random.Random(11)
    st = init_state(cfg, PREEMPTIVE)
    for _ in range(20_000):
        step(st, cfg, rng)
        fresh = init_state(cfg, PREEMPTIVE)
        fresh.set_counts(st.z)
        assert fresh.psi == st.psi


@pytest.mark.parametrize("kind", KINDS)
def test_invariants_along_trajectories(kind):
    # macro invariants and the one-class +-1 rule hold after every event
    # (>= 1e6 events in total across the three policy kinds)
    cfg = build_config(TWO_CLASS, 9.0, 1.0)
    rng = random.Random(3)
    st = init_state(cfg, kind)
    prev = st.project()
    for _ in range(350_000):
        assert step(st, cfg, rng) > 0.0
        m = st.project()
        assert validate_macro_state(m, cfg) == []
        diffs = [m.z[i] - prev.z[i] for i in range(cfg.n_classes)]
        changed = [d for d in diffs if d != 0]
        assert len(changed) == 1 and changed[0] in (-1, 1)
        prev = m


def test_fifo_z_law_equals_preemptive_single_class():
    # one class, nu=0: the Z-rates extracted from FIFO policy ops define the
    # same birth-death chain as the preemptive solve, so the stationary
    # distributions match to solver precision
    import numpy as np

    from helpers import birth_death_stationary
    from hwq.exact import build_generator, enumerate_states, stationary

    cfg = build_config([ClassParams(1.0, 1.0, 0.0)], 4.0, 1.0)
    K = 60

    def fifo_departure_rate(z):
        m = fifo_after_arrivals(cfg, [0] * z).project()
        return cfg.mus[0] * m.psi[0] + cfg.nus[0] * (m.z[0] - m.psi[0])

    fifo_pi = birth_death_stationary(
        lambda z: cfg.arrival_rates[0], fifo_departure_rate, K
    )
    gen = build_generator(enumerate_states(cfg, PREEMPTIVE, K))
    preemptive_pi = stationary(gen).pi
    assert np.abs(np.array(fifo_pi) - preemptive_pi).max() <= 1e-10


def test_fifo_counts_match_queue():
    # queued counts are the queue's labels; a queue only forms when all
    # servers are busy
    cfg = build_config(TWO_CLASS, 9.0, 1.0)
    rng = random.Random(13)
    st = init_state(cfg, FIFO)
    for _ in range(30_000):
        step(st, cfg, rng)
        q = [zi - pi for zi, pi in zip(st.z, st.psi)]
        assert q == [st.queue.count(c) for c in range(cfg.n_classes)]
        assert sum(st.psi) == min(cfg.n_servers, sum(st.z))


class _Pick:
    """Stands in for an rng whose uniform choice is fixed to ``j``."""

    def __init__(self, j):
        self.j = j

    def randrange(self, n):
        assert 0 <= self.j < n
        return self.j


def test_fifo_state_law_matches_label_sequence_oracle():
    # exact stationary laws of (z, psi) on sum(z) <= K: a label-sequence
    # chain in which every customer leaves at its own rate, against the
    # chain replayed from FifoState operations with each abandonment choice
    # enumerated at weight 1/q
    from helpers import ctmc_stationary_law

    K = 6
    for n_servers in (1, 2):
        cfg = dataclasses.replace(build_config(TWO_CLASS, 1.0, 1.0),
                                  n_servers=n_servers)
        nc = cfg.n_classes

        def seq_moves(seq):
            if len(seq) < K:
                for c in range(nc):
                    yield cfg.arrival_rates[c], seq + (c,)
            for pos, c in enumerate(seq):
                rate = cfg.mus[c] if pos < n_servers else cfg.nus[c]
                yield rate, seq[:pos] + seq[pos + 1:]

        def seq_project(seq):
            z = tuple(seq.count(c) for c in range(nc))
            psi = tuple(seq[:n_servers].count(c) for c in range(nc))
            return z, psi

        def fifo_moves(st, uniform):
            if sum(st.z) < K:
                for c in range(nc):
                    yield cfg.arrival_rates[c], st.copy().apply_arrival(c)
            for c in range(nc):
                if st.psi[c]:
                    yield (cfg.mus[c] * st.psi[c],
                           st.copy().apply_departure(c, SERVICE))
                q = st.z[c] - st.psi[c]
                picks = range(q) if uniform else [0] * bool(q)
                for j in picks:
                    yield (cfg.nus[c] * q / len(picks),
                           st.copy().apply_departure(c, QUEUE, _Pick(j)))

        def fifo_key(st):
            return tuple(st.psi), tuple(st.queue)

        def fifo_project(st):
            return tuple(st.z), tuple(st.psi)

        oracle = ctmc_stationary_law((), seq_moves, lambda s: s, seq_project)
        replay = ctmc_stationary_law(init_state(cfg, FIFO),
                                     lambda st: fifo_moves(st, True),
                                     fifo_key, fifo_project)
        assert replay.keys() == oracle.keys()
        assert max(abs(replay[m] - oracle[m]) for m in oracle) <= 1e-12
        # the check has power: always removing the earliest queued
        # customer changes the law
        earliest = ctmc_stationary_law(init_state(cfg, FIFO),
                                       lambda st: fifo_moves(st, False),
                                       fifo_key, fifo_project)
        assert max(abs(earliest[m] - oracle[m]) for m in oracle) > 1e-6
