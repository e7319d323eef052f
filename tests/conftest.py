"""Pin BLAS to one thread before numpy is first imported.

The hinge and wire tests factor and multiply many small matrices, for which
threaded BLAS is slower than one thread, and the last bits of their results
depend on the thread count.  ``setdefault`` leaves a thread count set in the
environment alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
