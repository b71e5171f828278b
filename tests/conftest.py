"""Test session setup.

BLAS and OpenMP run one thread, as in the benchmark workers: on small
machines the threads of one dense factorization contend, and a single
thread is faster; results are the same either way.  The variables are read
when numpy is first imported, which happens after this file is loaded; a
value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
