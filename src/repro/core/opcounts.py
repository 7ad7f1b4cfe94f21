"""Closed-form operation counts of the paper's kernels.

Section 3 states the arithmetic cost of the scheme precisely:

* kernel 1, stage 1: ``d - 2`` multiplications per variable for the powers
  ``x^2 .. x^(d-1)``;
* kernel 1, stage 2: ``k - 1`` multiplications per monomial for the common
  factor;
* kernel 2: ``5k - 4`` multiplications per monomial, of which ``3k - 6`` are
  the Speelpenning-product derivatives, ``k`` the common-factor products,
  ``1`` the monomial value, ``k + 1`` the coefficient products;
* kernel 3: exactly ``m`` additions per target polynomial, ``n^2 + n``
  targets.

These formulas are used three ways: the tests compare them against the
*measured* per-thread counters of the simulated kernels; the opcount
benchmark prints the comparison table; and the cost models consume the
measured counts, so agreement here ties the predicted times back to the
paper's complexity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..polynomials.system import SystemShape

__all__ = [
    "KernelOperationCounts",
    "speelpenning_multiplications",
    "kernel2_multiplications_per_thread",
    "kernel1_multiplications_per_thread",
    "expected_counts",
]


def speelpenning_multiplications(k: int) -> int:
    """``3k - 6`` multiplications for all derivatives of a k-variable product
    (0 for ``k <= 2``)."""
    return max(0, 3 * k - 6)


def kernel2_multiplications_per_thread(k: int) -> int:
    """The paper's ``5k - 4`` per-thread count for kernel 2 (``k >= 2``).

    For ``k = 1`` the count degenerates: 0 (derivative is the constant one)
    + 1 (common factor) + 1 (monomial value) + 2 (coefficients) = 4.
    For ``k = 0`` only the coefficient multiplication remains.
    """
    if k <= 0:
        return 1
    if k == 1:
        return 4
    return 5 * k - 4


def kernel1_multiplications_per_thread(k: int) -> int:
    """Common factor of a k-variable monomial: ``k - 1`` multiplications."""
    return max(0, k - 1)


def kernel1_power_multiplications_per_variable(d: int) -> int:
    """Powers ``x^2 .. x^(d-1)``: ``d - 2`` multiplications when ``d >= 2``."""
    return max(0, d - 2)


@dataclass(frozen=True)
class KernelOperationCounts:
    """Expected totals for one evaluation of a regular system."""

    shape: SystemShape
    blocks: int
    kernel1_power_multiplications: int
    kernel1_factor_multiplications: int
    kernel2_multiplications: int
    kernel3_additions: int

    @property
    def total_multiplications(self) -> int:
        return (self.kernel1_power_multiplications
                + self.kernel1_factor_multiplications
                + self.kernel2_multiplications)

    def as_dict(self) -> Dict[str, int]:
        return {
            "kernel1_power_multiplications": self.kernel1_power_multiplications,
            "kernel1_factor_multiplications": self.kernel1_factor_multiplications,
            "kernel2_multiplications": self.kernel2_multiplications,
            "kernel3_additions": self.kernel3_additions,
            "total_multiplications": self.total_multiplications,
        }


def expected_counts(shape: SystemShape, block_size: int = 32) -> KernelOperationCounts:
    """Expected operation totals for one evaluation on the simulated device.

    Note the power table is computed *per block* (every block of kernel 1
    rebuilds it, as the paper discusses at length in section 3.1), so the
    power-multiplication total scales with the number of blocks, not with 1.
    """
    n = shape.dimension
    m = shape.monomials_per_polynomial
    k = shape.variables_per_monomial
    d = shape.max_variable_degree
    nm = shape.total_monomials
    blocks = -(-nm // block_size)

    return KernelOperationCounts(
        shape=shape,
        blocks=blocks,
        kernel1_power_multiplications=blocks * n * kernel1_power_multiplications_per_variable(d),
        kernel1_factor_multiplications=nm * kernel1_multiplications_per_thread(k),
        kernel2_multiplications=nm * kernel2_multiplications_per_thread(k),
        kernel3_additions=(n * n + n) * m,
    )
