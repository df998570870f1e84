"""Rewrite the golden model files and evaluate reports under ``tests/golden/``.

    python3 scripts/regen_golden.py

Run it only when a change is meant to alter model bytes or reports, and say
in CHANGES.md why they changed.  The input CSVs are left as they are.  Each
file written is printed as ``changed`` or ``unchanged``, so that the commit
can name the files whose bytes moved.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from golden_cases import (CASES, GOLDEN_DIR, NUMPY_VERSION_FILE,  # noqa: E402
                          numpy_version, replay)


def write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` and print whether its bytes changed."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            state = "unchanged" if fh.read() == text else "changed"
    except FileNotFoundError:
        state = "changed"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"{state:9} {os.path.relpath(path, ROOT)}")


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            for file_name, text in replay(name, work).items():
                write(os.path.join(GOLDEN_DIR, file_name), text)
    write(NUMPY_VERSION_FILE, numpy_version() + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
