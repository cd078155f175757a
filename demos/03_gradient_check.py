#!/usr/bin/env python3
"""Verify the analytic policy gradients against central finite differences.

All step log-probabilities are differentiated with the keep/remask split and
the remasked rows' support sets held fixed (the almost-everywhere gradient).
The same check runs on the full clipped surrogate objective, with and
without the KL penalty.
"""

import time

from maskgrpo.oracles import run_gradcheck

start = time.perf_counter()
trials = 20
report = run_gradcheck(trials=trials, seed=1)
elapsed = time.perf_counter() - start
values = {label: value for label, value, _, _ in report.checks}

print("per-coordinate central differences vs analytic backward pass")
print(f"  trials per definition / per KL setting: {trials}")
print(f"  worst mismatch (relative, abs-floored at 1e-8): {values['worst per-coordinate error']:.3e}")
print(f"  worst absolute difference: {values['worst absolute difference (error 0 up to 1e-8)']:.3e}")
print(f"  surrogate terms that exercised the clip: {values['fraction of surrogate terms clipped']:.1%}")
print(f"  elapsed: {elapsed:.1f}s")
print("PASS" if report.passed else "FAIL")
