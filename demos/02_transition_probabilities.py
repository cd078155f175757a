#!/usr/bin/env python3
"""Compare the three step transition-probability definitions on a worked case.

Setup: two masked positions with prediction rows [0.5, 0.5] and [0.7, 0.3],
one kept per step.  Both positions sample token 0; the second one wins on
confidence (0.7 > 0.5) and is kept, the first is remasked.

The question each definition answers: how likely was *this next canvas*?

* AR-style multiplies every sampled confidence, 0.5 * 0.7 = 0.35, treating
  the remasked sample as if it were committed.  But the remasked token is
  discarded: sampling token 1 there instead would have produced the same
  next canvas.
* The exact form multiplies kept confidences by, per remasked position, the
  total mass of tokens whose sample would rank below every kept one (below
  the smallest kept confidence, or equal to it at a later position): here
  both tokens of row one lie below 0.7, so 0.7 * (0.5 + 0.5) = 0.7.
* The kept-only form keeps just 0.7, a cheaper upper bound.

Brute-force enumeration over all 4 joint samplings confirms the exact form.
"""

import numpy as np

from maskgrpo import ProbMatrix
from maskgrpo.transition import (
    StepOutcome,
    TransitionKind,
    cam_select,
    enumerate_next_states,
    oracle_check,
    step_logprob,
)

probs = ProbMatrix.from_rows([[0.5, 0.5], [0.7, 0.3]])
outcome = StepOutcome(
    sampled=np.array([0, 0]),
    confidences=np.array([0.5, 0.7]),
    chosen=np.array([False, True]),
    positions=probs.positions,
)

print("== The three definitions ==")
for kind, label, note in (
    (TransitionKind.AR_STYLE, "AR-style ", "0.5 * 0.7"),
    (TransitionKind.EXACT, "exact    ", "0.7 * (0.5 + 0.5)"),
    (TransitionKind.UNMASKED_ONLY, "kept-only", "0.7"),
):
    print(f"{label}  exp(logp) = {np.exp(step_logprob(kind, probs, outcome)):.4f}   ({note})")
print()

print("== Brute-force enumeration of all joint samplings ==")
table = enumerate_next_states(probs, 1)
for sig, p in sorted(table.items(), key=lambda kv: -kv[1]):
    print(f"  keep position {sig.positions[0]} as token {sig.values[0]}: probability {p:.4f}")
print(f"  total: {sum(table.values()):.10f}")
print()

check = oracle_check(probs, outcome)
print("== Oracle agreement for the outcome above ==")
print(f"enumerated {check.enumerated:.10f}  closed form {check.modeled:.10f}  diff {check.abs_diff:.2e}")
print()

print("== Ordering: AR-style <= exact <= kept-only, on random instances ==")
from maskgrpo.decoder import sample_step

rng = np.random.default_rng(0)
for trial in range(5):
    raw = rng.gamma(1.0, 1.0, size=(4, 4)) + 1e-6
    pm = ProbMatrix.from_rows(raw / raw.sum(axis=1, keepdims=True))
    sampled, confs = sample_step(pm, rng)
    chosen = cam_select(confs, 2)
    oc = StepOutcome(sampled=sampled, confidences=confs, chosen=chosen, positions=pm.positions)
    triple = [step_logprob(kind, pm, oc) for kind in TransitionKind]
    print(f"  trial {trial}: {triple[0]:+.4f} <= {triple[1]:+.4f} <= {triple[2]:+.4f}")
