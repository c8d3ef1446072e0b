"""Symbolic exterior calculus on coordinate charts, with point checks,
locus verification, and a small scenario language driving it all.
"""

from .charts import (
    Chart,
    ChartMap,
    DForm,
    Metric,
    VectorField,
    coord_differential,
    function_form,
    zero_form,
)
from .errors import (
    DomainError,
    ElaborationError,
    EvaluationError,
    NsxError,
    ParseError,
    UnsupportedMetricError,
)
from .symexpr import (
    ONE,
    PI,
    ZERO,
    Expr,
    compile_numpy,
    cos_of,
    evaluate,
    exp_of,
    opaque_fn,
    rat,
    semantically_equal,
    sin_of,
    sym,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "ChartMap",
    "DForm",
    "Metric",
    "VectorField",
    "coord_differential",
    "function_form",
    "zero_form",
    "NsxError",
    "DomainError",
    "EvaluationError",
    "ParseError",
    "ElaborationError",
    "UnsupportedMetricError",
    "Expr",
    "ZERO",
    "ONE",
    "PI",
    "sym",
    "rat",
    "exp_of",
    "sin_of",
    "cos_of",
    "opaque_fn",
    "evaluate",
    "compile_numpy",
    "semantically_equal",
    "__version__",
]
