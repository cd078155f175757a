#!/usr/bin/env python3
"""The absorbing-state diffusion frame behind masked decoding.

Forward corruption sends token mass into the mask state and never out; the
decoder runs this in reverse.  The demo builds the one-step matrices, checks
the closed-form marginal against the full matrix product, inverts one step
with Bayes' rule, and evaluates the per-step KL terms of the variational
bound for a perfect and an uninformed start-state predictor.
"""

import numpy as np

from maskgrpo.discrete_diffusion import (
    MatrixKind,
    build_absorbing_q,
    build_uniform_q,
    cumulative_q,
    elbo_terms,
    forward_marginal,
    reverse_posterior,
)

K = 4  # three real tokens plus the trailing mask state
rates = [0.2, 0.3, 0.5]

print("== One-step matrices at rate 0.3 ==")
print("absorbing:")
print(build_absorbing_q(K, 0.3))
print("uniform:")
print(build_uniform_q(K, 0.3))
print()

print("== Forward marginal from token 0: closed form vs matrix product ==")
survive = np.prod([1 - r for r in rates])
closed = np.array([survive, 0.0, 0.0, 1.0 - survive])
marg = forward_marginal(0, K, rates, MatrixKind.ABSORBING)
print(f"product of survivals: {survive:.4f}")
print(f"matrix product marginal: {np.round(marg, 6)}")
print(f"max difference vs closed form: {np.abs(marg - closed).max():.2e}")
print()

print("== Reverse posterior: where was the chain one step earlier? ==")
q_t = build_absorbing_q(K, rates[-1])
qbar = cumulative_q(K, rates[:-1], MatrixKind.ABSORBING)
post_if_masked = reverse_posterior(K - 1, 0, q_t, qbar)
post_if_kept = reverse_posterior(0, 0, q_t, qbar)
print(f"observed mask at t=3, started at 0:  {np.round(post_if_masked, 4)}")
print(f"observed token 0 at t=3, started at 0: {np.round(post_if_kept, 4)}")
print()

print("== Variational bound terms ==")
perfect = np.zeros((len(rates), K, K))
perfect[:, :, 0] = 1.0  # always names the true start state
terms, total = elbo_terms(0, K, rates, MatrixKind.ABSORBING, perfect)
print(f"perfect predictor:   per-step {np.round(terms, 6)}  total {total:.2e}")
uninformed = np.full((len(rates), K, K), 1.0 / K)
terms, total = elbo_terms(0, K, rates, MatrixKind.ABSORBING, uninformed)
print(f"uninformed predictor: per-step {np.round(terms, 4)}  total {total:.4f}")
