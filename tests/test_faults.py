"""Every row of the fault table in `faults.py` breaks the ops it names."""
import pytest

from faults import FAULTS, check


@pytest.mark.parametrize("fault_id", FAULTS)
def test_fault(fault_id):
    check(fault_id)
