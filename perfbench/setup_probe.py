"""Time from ``import gpstack`` to a CSV parsed, in this fresh interpreter.

    python3 setup_probe.py SRC_DIR CSV_PATH

Prints the seconds as its last line.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import gpstack  # noqa: E402

gpstack.load_csv(sys.argv[2])
print(time.perf_counter() - t0)
