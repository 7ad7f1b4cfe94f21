"""The dd add/sub small-batch bypass: tiny batches take the plain chain.

The fused kernel and the chain are bit-for-bit identical, so the gate is
purely a cost policy: below
:data:`~repro.multiprec.bufferpool.DD_ADDSUB_FUSED_MIN_ELEMENTS` the fused
add/sub kernel loses to the plain chain (no Dekker splits to share, fixed
scratch-stack cost) and the operators route around it.  The gate is pinned
here by whether an op takes scratch from the plane stack, and the results
on both sides are pinned against :mod:`repro.multiprec.reference`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.multiprec import reference
from repro.multiprec.bufferpool import DD_ADDSUB_FUSED_MIN_ELEMENTS, plane_stack
from repro.multiprec.ddarray import DDArray

BELOW = DD_ADDSUB_FUSED_MIN_ELEMENTS - 1
AT = DD_ADDSUB_FUSED_MIN_ELEMENTS


def random_pair(size, seed=99):
    rng = np.random.default_rng(seed)
    return tuple(DDArray(rng.normal(size=size), rng.normal(size=size) * 1e-17)
                 for _ in range(2))


def takes_scratch(op, size) -> bool:
    """Whether ``op`` draws planes of the operand shape from the stack."""
    stack = plane_stack()
    stack.clear()
    op(*random_pair(size))
    return stack.capacity() > 0


class TestGate:
    @pytest.mark.parametrize("op", [DDArray.__add__, DDArray.__sub__],
                             ids=["add", "sub"])
    def test_gate_sits_at_the_constant(self, op):
        assert not takes_scratch(op, 1)
        assert not takes_scratch(op, BELOW)
        assert takes_scratch(op, AT)
        assert takes_scratch(op, AT * 4)

    def test_broadcast_operand_gates_on_the_larger_size(self):
        small = DDArray(np.array([1.5]))
        large, _ = random_pair(AT)
        assert takes_scratch(lambda a, b: small + large, AT)

    @pytest.mark.parametrize("size", [3, BELOW, AT, AT + 5])
    def test_operators_match_the_reference_chain(self, size):
        a, b = random_pair(size)
        for got, expected in ((a + b, reference.dd_add(a, b)),
                              (a - b, reference.dd_sub(a, b))):
            assert np.array_equal(got.hi, expected.hi)
            assert np.array_equal(got.lo, expected.lo)
