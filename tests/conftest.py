"""Make the src layout importable when the package is not installed, run the
suite on one BLAS thread, and make Hypothesis draw the same examples on
every run.

The BLAS thread count changes how BLAS calls round, and so the bits of a run;
one thread keeps them independent of the core count.  The pin must come before
numpy loads its BLAS, which nothing imported before this file (pytest and its
hypothesis plugin) does.

Hypothesis draws its examples from a fixed seed per test and keeps no example
database, so two runs of one tree give the same outcome; a case worth keeping
is pinned with ``@example``.
"""

import os
import sys
from pathlib import Path

from hypothesis import settings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
