"""The benchmark's layer trace can still instrument gpstack.

``perfbench/layers.py`` wraps gpstack functions at the names their callers
look up.  This test installs those wrappers, runs split, train and evaluate
through the CLI on a small set, and checks that every wrapped name was
called and that ``restore`` puts the originals back.  It reads
``perfbench/`` and changes nothing there.
"""

import contextlib
import io
import os
import sys

import pytest

from gpstack.cli import main
from gpstack.dataset import write_csv

from helpers import separable_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans
    yield layers, spans
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


# train options of each case, and the wrapped names a case may leave
# uncalled: batched fixed-mode scoring and float32 scoring never call
# gini_fitness, so a case with 8-cell fixed bin tables, which scores program
# by program, shows that every wrapped name is called somewhere
CASES = {
    "small-fast": (["--preset", "small-fast"], {"binning.gini_fitness"}),
    "large-fast": (["--preset", "large-fast"], {"binning.gini_fitness"}),
    "fixed-4-bins": (["--preset", "small-fast", "--num-bin", "4"], set()),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_wrapped_name_is_bound_and_called(case, perfbench_modules, tmp_path):
    layers, spans = perfbench_modules

    class Recording(spans.Tracer):
        """A tracer that also notes each (owner, attribute, span name) it wraps."""

        def __init__(self):
            super().__init__()
            self.wrapped = []

        def wrap(self, owner, attr, name, observe=None):
            original = getattr(owner, attr)  # AttributeError if gpstack dropped the name
            self.wrapped.append((owner, attr, name, original))
            super().wrap(owner, attr, name, observe)

    csv = str(tmp_path / "data.csv")
    write_csv(separable_dataset(n_per_class=60, d=3), csv)
    prefix, model = str(tmp_path / "part"), str(tmp_path / "m.model")
    train_options, optional = CASES[case]
    tracer = Recording()
    layers.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["split", "--data", csv, "--seed", "0", "--out", prefix]) == 0
            assert main(["train", "--data", f"{prefix}_train.csv", "--model", model,
                         *train_options, "--boost-epochs", "3", "--seed", "0"]) == 0
            assert main(["evaluate", "--data", f"{prefix}_test.csv", "--model", model]) == 0
    finally:
        tracer.restore()

    assert len(tracer.wrapped) == 23
    assert all(getattr(owner, attr) is fn for owner, attr, _, fn in tracer.wrapped)
    names = {name for _, _, name, _ in tracer.wrapped}
    assert names - optional <= set(tracer.summary())
