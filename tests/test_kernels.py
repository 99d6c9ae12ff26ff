"""The kernels' order guards and the backend name the report carries."""

import pytest

import treeirr
from treeirr import _kernels
from treeirr.claims import ReportConfig, run_report


def test_backend_is_python():
    assert treeirr.KERNEL_BACKEND == _kernels.BACKEND == "python"
    report = run_report(ReportConfig(claim_ids=("table1",)))
    assert report.metadata["kernel_backend"] == "python"


@pytest.mark.parametrize(
    "call",
    [
        lambda: _kernels.level_sequences(0),
        lambda: _kernels.canon_code(0, []),
        lambda: _kernels.index_bundle(0, []),
    ],
    ids=["level_sequences", "canon_code", "index_bundle"],
)
def test_order_guards(call):
    with pytest.raises(ValueError, match="order must be >= 1"):
        call()
