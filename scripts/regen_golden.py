"""Rewrite the golden model files and evaluate reports under ``tests/golden/``.

    python3 scripts/regen_golden.py

Run it only when a change is meant to alter model bytes or reports, and say
in CHANGES.md why they changed.  The input CSVs are left as they are.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from golden_cases import (CASES, GOLDEN_DIR, NUMPY_VERSION_FILE,  # noqa: E402
                          numpy_version, replay)


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            for file_name, text in replay(name, work).items():
                with open(os.path.join(GOLDEN_DIR, file_name), "w",
                          encoding="utf-8", newline="") as fh:
                    fh.write(text)
                print(f"wrote tests/golden/{file_name}")
    with open(NUMPY_VERSION_FILE, "w", encoding="utf-8", newline="") as fh:
        fh.write(numpy_version() + "\n")
    print(f"numpy {numpy_version()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
