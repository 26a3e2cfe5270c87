"""Lazy dense-vector expressions evaluated through unrolled lane loops.

Arithmetic on DenseVector builds an expression tree instead of computing;
assigning the tree to a vector or reducing it runs one fused loop over
unrolled, burst-scheduled lane operations. Named level-1 entry points
(dot, scal, axpy, scaled_copy, sum, norm2) wrap the same machinery.
"""

from .engine import (
    DEFAULT_REGISTER_BUDGET,
    UNROLL_FACTORS,
    PlanError,
    UnrollPlan,
    call_trace,
    execute_assign,
    execute_reduce,
    select_plan,
)
from .expressions import (
    AddNode,
    AssignNode,
    Expression,
    Leaf,
    LengthMismatchError,
    MulNode,
    ScaleNode,
    SubNode,
    SumNode,
    as_node,
)
from .lanes import (
    CONTAINER_ALIGNMENT,
    LaneBackend,
    LaneVector,  # not public; see lanes
    default_backend,
    horizontal_sum,
    scalar_backend,
    wide_backend,
)
from .ops import axpy, dot, norm2, scal, scaled_copy, sum
from .oracle import (
    CountingVector,
    kahan_sum,
    oracle_axpy,
    oracle_dot,
    oracle_scal,
    oracle_scaled_copy,
    oracle_sum,
)
from .vectors import DenseVector

__version__ = "0.1.0"

__all__ = [
    "DenseVector",
    "Expression",
    "Leaf",
    "AddNode",
    "SubNode",
    "MulNode",
    "ScaleNode",
    "AssignNode",
    "SumNode",
    "as_node",
    "LengthMismatchError",
    "LaneBackend",
    "scalar_backend",
    "wide_backend",
    "default_backend",
    "horizontal_sum",
    "CONTAINER_ALIGNMENT",
    "UnrollPlan",
    "PlanError",
    "select_plan",
    "execute_assign",
    "execute_reduce",
    "call_trace",
    "UNROLL_FACTORS",
    "DEFAULT_REGISTER_BUDGET",
    "dot",
    "scal",
    "axpy",
    "scaled_copy",
    "sum",
    "norm2",
    "CountingVector",
    "oracle_dot",
    "oracle_sum",
    "oracle_scal",
    "oracle_axpy",
    "oracle_scaled_copy",
    "kahan_sum",
    "__version__",
]
