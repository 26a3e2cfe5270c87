"""Named level-1 vector operations built on the expression machinery.

Each function assembles a small expression tree and hands it to the loop
engine, so every call is one fused traversal regardless of how many
arithmetic steps it combines. All functions accept the engine's keyword
options (plan, backend, unroll, packages, stepped) and pass them through
unchanged.
"""

import numpy as np

from .engine import execute_assign, execute_reduce
from .expressions import AssignNode, MulNode, ScaleNode, SumNode, as_node

__all__ = ["dot", "scal", "axpy", "scaled_copy", "sum", "norm2"]


def dot(x, y, **options):
    """Sum of elementwise products of two equal-length vectors."""
    return execute_reduce(SumNode(MulNode(as_node(x), as_node(y))), **options)


def scal(alpha, x, **options) -> None:
    """In-place scaling x = alpha * x.

    Destination and source are the same vector; the multiply reads each
    element before it writes it, so the exact-overlap case is safe.
    """
    execute_assign(AssignNode(x, ScaleNode(alpha, as_node(x))), **options)


def axpy(alpha, x, y, **options) -> None:
    """In-place update y = y + alpha * x."""
    execute_assign(AssignNode(y, as_node(y) + ScaleNode(alpha, as_node(x))), **options)


def scaled_copy(alpha, x, out, **options) -> None:
    """Out-of-place scaling out = alpha * x in a single traversal.

    One read per source element, one write per destination element, no
    intermediate vector. out must not overlap x.
    """
    execute_assign(AssignNode(out, ScaleNode(alpha, as_node(x))), **options)


def sum(x, **options):
    """Sum of all elements."""
    return execute_reduce(SumNode(x), **options)


def norm2(x, **options):
    """Euclidean norm sqrt(dot(x, x))."""
    return np.sqrt(dot(x, x, **options))
