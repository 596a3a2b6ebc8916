"""One BLAS thread for the process, unless the environment already chose.

The library's matrices are small (thousands of rows, tens of columns),
so a second BLAS thread saves little per call, while OpenBLAS's worker
spins on a core after every call.  A process that calls BLAS steadily,
as the service's dispatch lane does, then burns a second core for
nothing, and its calls slow up to tenfold whenever that core is busy
with request threads or other processes.

OpenBLAS reads the variable when numpy loads it, so this module must be
imported before numpy: :mod:`repro` imports it first, which covers
``python -m repro.cli`` and any program whose first import is
``repro``.  Set ``OPENBLAS_NUM_THREADS`` to choose another count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
