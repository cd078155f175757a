#!/usr/bin/env python3
"""Verify the analytic policy gradients against central finite differences.

All step log-probabilities are differentiated with the keep/remask split and
the remasked rows' support sets held fixed (the almost-everywhere gradient).
The same check runs on the full clipped surrogate objective, with and
without the KL penalty.
"""

import time

from maskgrpo.harness import run_gradcheck

start = time.perf_counter()
report = run_gradcheck(trials=20, seed=1)
elapsed = time.perf_counter() - start

print("per-coordinate central differences vs analytic backward pass")
print(f"  trials per definition / per KL setting: {report.trials}")
print(f"  worst mismatch (relative, abs-floored at 1e-8): {report.worst_rel_err:.3e}")
print(f"  worst absolute difference: {report.worst_abs_err:.3e}")
print(f"  surrogate terms that exercised the clip: {report.clip_fraction:.1%}")
print(f"  elapsed: {elapsed:.1f}s")
print("PASS" if report.passed else "FAIL")
