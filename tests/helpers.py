"""Independent oracles used to freeze expected values.

Everything here is deliberately written from first principles (cumulative
products, direct summation) and does not touch the solver/simulator code
paths under test.
"""

import math

import numpy as np


def birth_death_stationary(birth, death, K):
    """Stationary distribution of a birth-death chain on 0..K.

    ``birth(n)`` and ``death(n)`` give the rates; computed via cumulative
    products of birth/death ratios, normalized.
    """
    weights = [1.0]
    for n in range(1, K + 1):
        weights.append(weights[-1] * birth(n - 1) / death(n))
    total = sum(weights)
    return [w / total for w in weights]


def birth_death_mean(birth, death, K):
    pi = birth_death_stationary(birth, death, K)
    return sum(n * p for n, p in enumerate(pi))


def mmn_stationary(lam, mu, n_servers, K):
    """M/M/N queue: birth lam, death mu*min(n, N)."""
    return birth_death_stationary(
        lambda n: lam, lambda n: mu * min(n, n_servers), K
    )


def erlang_a_stationary(lam, mu, nu, n_servers, K):
    """M/M/N with abandonment: death mu*min(n,N) + nu*(n-N)^+."""
    return birth_death_stationary(
        lambda n: lam,
        lambda n: mu * min(n, n_servers) + nu * max(n - n_servers, 0),
        K,
    )


def poisson_pmf_ref(mean, n):
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def covers(estimate, truth, n_sigma=3.0):
    """True when |estimate.value - truth| <= n_sigma standard errors.

    The 95% half-width is ~1.96 standard errors.
    """
    se = estimate.half_width / 1.96
    return abs(estimate.value - truth) <= n_sigma * max(se, 1e-300)


def ctmc_stationary_law(start, moves, key, project):
    """Stationary law of ``project(state)`` for the finite CTMC reachable
    from ``start``.

    ``moves(state)`` yields ``(rate, next_state)`` pairs and ``key(state)``
    identifies states.  The generator is solved densely with the
    normalization replacing one balance equation.
    """
    states = [start]
    index = {key(start): 0}
    edges = []
    i = 0
    while i < len(states):
        for rate, nxt in moves(states[i]):
            k = key(nxt)
            if k not in index:
                index[k] = len(states)
                states.append(nxt)
            edges.append((i, index[k], rate))
        i += 1
    n = len(states)
    Q = np.zeros((n, n))
    for a, b, rate in edges:
        Q[a, b] += rate
        Q[a, a] -= rate
    A = Q.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(A, rhs)
    law = {}
    for st, p in zip(states, pi):
        m = project(st)
        law[m] = law.get(m, 0.0) + p
    return law
