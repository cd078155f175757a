"""Pin BLAS to one thread before any test module imports numpy.

The wall-clock criteria then time the same single-threaded matrix products
that the benchmark (``bench/run.py``) measures.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
