"""Named level-1 vector operations built on the expression machinery.

Each function assembles a small expression tree and hands it to the loop
engine, so every call is one fused traversal regardless of how many
arithmetic steps it combines. Each takes the engine's four options
(plan, backend, unroll, stepped) as keyword-only parameters,
with `execute_reduce`'s and `execute_assign`'s defaults, and forwards
them by name, so an unknown keyword raises a TypeError that names the
function called.
"""

import numpy as np

from .engine import execute_assign, execute_reduce
from .expressions import AddNode, AssignNode, MulNode, ScaleNode, SumNode

__all__ = ["dot", "scal", "axpy", "scaled_copy", "sum", "norm2"]


def dot(x, y, *, plan=None, backend=None, unroll=None, stepped=False):
    """Sum of elementwise products of two equal-length vectors."""
    return execute_reduce(SumNode(MulNode(x, y)), plan, backend=backend, unroll=unroll,
                          stepped=stepped)


def scal(alpha, x, *, plan=None, backend=None, unroll=None, stepped=False) -> None:
    """In-place scaling x = alpha * x.

    Destination and source are the same vector; the multiply reads each
    element before it writes it, so the exact-overlap case is safe.
    """
    execute_assign(AssignNode(x, ScaleNode(alpha, x)), plan, backend=backend, unroll=unroll,
                   stepped=stepped)


def axpy(alpha, x, y, *, plan=None, backend=None, unroll=None, stepped=False) -> None:
    """In-place update y = y + alpha * x."""
    execute_assign(AssignNode(y, AddNode(y, ScaleNode(alpha, x))), plan, backend=backend,
                   unroll=unroll, stepped=stepped)


def scaled_copy(alpha, x, out, *, plan=None, backend=None, unroll=None, stepped=False) -> None:
    """Out-of-place scaling out = alpha * x in a single traversal.

    One read per source element, one write per destination element, no
    intermediate vector. out must not overlap x.
    """
    execute_assign(AssignNode(out, ScaleNode(alpha, x)), plan, backend=backend, unroll=unroll,
                   stepped=stepped)


def sum(x, *, plan=None, backend=None, unroll=None, stepped=False):
    """Sum of all elements."""
    return execute_reduce(SumNode(x), plan, backend=backend, unroll=unroll, stepped=stepped)


def norm2(x, *, plan=None, backend=None, unroll=None, stepped=False):
    """Euclidean norm sqrt(dot(x, x))."""
    return np.sqrt(execute_reduce(SumNode(MulNode(x, x)), plan, backend=backend, unroll=unroll,
                                  stepped=stepped))
