"""Model bytes, evaluate reports and CSV writer bytes stay equal to the
committed golden files."""

import glob
import os

import pytest

from gpstack.dataset import load_csv, write_csv

from golden_cases import CASES, GOLDEN_DIR, NUMPY_VERSION_FILE, numpy_version, replay


def read_text(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    made_with = read_text(NUMPY_VERSION_FILE).strip()
    for file_name, text in replay(name, str(tmp_path)).items():
        expected = read_text(os.path.join(GOLDEN_DIR, file_name))
        assert text == expected, (
            f"tests/golden/{file_name} differs from a fresh run; the golden files "
            f"were made with numpy {made_with}, this run uses numpy {numpy_version()}. "
            f"If the change is intended, run scripts/regen_golden.py and say why in "
            f"CHANGES.md.")


@pytest.mark.parametrize("file_name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(GOLDEN_DIR, "*.csv"))))
def test_golden_csv_rewrites_to_same_bytes(file_name, tmp_path):
    # uci_* and rounded_* are `gpstack split` output and all four hold -0.0,
    # so load -> write must give back each golden CSV byte for byte.
    path = os.path.join(GOLDEN_DIR, file_name)
    out = tmp_path / file_name
    write_csv(load_csv(path), str(out))
    with open(path, "rb") as fh:
        assert out.read_bytes() == fh.read()
