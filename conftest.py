"""Session-wide test configuration: one BLAS thread, set before numpy loads.

On the 2-vCPU hosts the suite runs on, OpenBLAS starts a thread per core in
every process; the fork-based executor workers each start their own, and the
oversubscription — not dispatch or IPC — then dominates anything that times a
process round against a serial one
(``tests/integration/test_process_executor.py::test_process_overhead_is_bounded_on_any_host``
failed 1 run in 3 for that reason alone).  ``perf/run.py`` pins the same way.
The variables are read when the BLAS library is loaded, so this file — the
first conftest pytest imports — must not import numpy.
"""

import os

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
