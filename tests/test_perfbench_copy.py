"""The benchmark keeps its own copy of the general chain's wiring
(`perfbench.workloads.general_chain`); it must build the same records as
`constants.chain`, so that the benchmark's checks judge the library's
numbers.  The copy changes only with the benchmark.
"""
import pytest

import pntap.constants as C
from perfbench import workloads


@pytest.mark.parametrize("lx0", sorted(C.REFERENCE_KAPPA))
def test_general_chain_matches_library(lx0):
    assert workloads.general_chain(lx0) == C.chain(lx0, False)[1:]
