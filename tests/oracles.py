"""Reference implementations the package is checked against.

No run, check, sweep or benchmark calls these; tests do. Each computes
directly what the package computes another way:

* ``finite_diff_jacobian``: central differences, the oracle for
  ``nn.jacobian``, through ``set_params``, which writes a flat vector back
  into the layers before a tap;
* ``loss_gradient``: one eval-mode step of ``nn.train``'s backprop into a new
  vector, the autodiff side of the BADGE identity;
* ``deviation_block``: one example's deviation for one direction, through
  ``stability._deviations``;
* ``failure_fraction``: the direct concentration simulation that
  ``theory.reduced_failure_fraction`` samples in law.

Import them as ``from oracles import ...``: pytest puts ``tests/`` on the
import path of its test modules.
"""

import numpy as np

from noisestab import nn, seeding, stability, theory
from noisestab.exceptions import ConfigError, DimensionError


def set_params(model, vec, tap=nn.TAP_PREDICTIVE):
    """Write a flat vector into the layers before the tap (inverse of
    ``nn.flatten_params``)."""
    vec = np.asarray(vec, dtype=np.float64)
    expected = model.n_params(tap)
    if vec.shape != (expected,):
        raise DimensionError(f"expected parameter vector of length {expected}, got {vec.shape}")
    nn._write_params(model, vec, tap)


def finite_diff_jacobian(model, x, tap=nn.TAP_FEATURE, h=1e-5):
    """Central-difference Jacobian oracle, (f(θ+h·eⱼ) − f(θ−h·eⱼ)) / 2h."""
    if h <= 0:
        raise ConfigError("finite-difference step h must be positive")
    boundary = model.tap_boundary(tap)
    work = model.copy()
    theta = nn.flatten_params(work, tap)
    base = np.atleast_1d(nn.forward_to(work, x, boundary))
    jac = np.zeros((base.size, theta.size))
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        set_params(work, theta + step, tap)
        plus = np.atleast_1d(nn.forward_to(work, x, boundary))
        set_params(work, theta - step, tap)
        minus = np.atleast_1d(nn.forward_to(work, x, boundary))
        jac[:, j] = (plus - minus) / (2.0 * h)
    set_params(work, theta, tap)
    return jac


def loss_gradient(model, x, y):
    """Flat gradient of the batch-mean loss w.r.t. all parameters, plus the
    per-example loss values: one eval-mode step of ``train``'s backprop, into
    a new vector."""
    batch, _ = nn._as_batch(x)
    flat = np.empty(model.n_params())
    losses = nn._backprop(model, batch, nn._class_targets(model, y),
                          nn._param_views(model, flat), False, None)
    return flat, losses


def deviation_block(model, x, pset, k) -> np.ndarray:
    """Normalized output deviation (d,) of one example for direction k."""
    xs = np.asarray(x, dtype=np.float64)[None, :]
    return stability._deviations(model, xs, pset, pset.directions[[k]])[0, 0]


def failure_fraction(kind, n, samplings, epsilon, trials, seed) -> float:
    """Fraction of independent trials violating the stated concentration bound.

    This is the direct reference simulation: each trial draws fresh
    n-dimensional gradient vectors and a fresh K x n projection, on derived
    per-trial streams, so the result is schedule-independent. The checks run
    ``reduced_failure_fraction``, which has the same law at a fraction of the
    cost.
    """
    theory._check_concentration_args(kind, n, samplings, epsilon, trials)
    violations = 0
    for t in range(trials):
        gen = seeding.rng(seed, t)
        q = theory._projection_matrix(n, samplings, gen)
        if kind == "magnitude":
            g = gen.standard_normal(n)
            z = q @ g
            violations += abs(np.linalg.norm(z) - np.linalg.norm(g)) > epsilon * np.linalg.norm(g)
        elif kind == "distance":
            g_i = gen.standard_normal(n)
            g_j = gen.standard_normal(n)
            diff = g_i - g_j
            z = q @ diff
            violations += abs(np.linalg.norm(z) - np.linalg.norm(diff)) > epsilon * np.linalg.norm(diff)
        else:
            g_i = gen.standard_normal(n)
            g_j = gen.standard_normal(n)
            gh_i = g_i / np.linalg.norm(g_i)
            gh_j = g_j / np.linalg.norm(g_j)
            z_i = q @ gh_i
            z_j = q @ gh_j
            cos_hat = float(z_i @ z_j / (np.linalg.norm(z_i) * np.linalg.norm(z_j)))
            cos_true = float(gh_i @ gh_j)
            lo = (cos_true - epsilon) / (1.0 + epsilon) ** 2
            hi = (cos_true + epsilon) / (1.0 - epsilon) ** 2
            violations += cos_hat < lo or cos_hat > hi
    return violations / trials
