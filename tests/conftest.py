"""Make the src layout importable when the package is not installed, and run
the suite on one BLAS thread.

The BLAS thread count changes how BLAS calls round, and so the bits of a run;
one thread keeps them independent of the core count.  The pin must come before
numpy loads its BLAS, which nothing imported before this file (pytest and its
hypothesis plugin) does.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
