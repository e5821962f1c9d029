"""Pin the BLAS thread count to one for the whole test session.

The CLI goldens pin window-norm rows to the last bit, and OpenBLAS may split
its sums differently for each thread count, so without the pin those rows
could depend on the host's core count.  OpenBLAS reads these variables once, when
numpy is first imported, so they are set here, before any test module loads.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before the BLAS thread count could be pinned")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
