"""
multfree: exact tensor-product decompositions for the compact classical
groups and a truncated multiplicity-freeness classifier for twisted Gelfand
pairs on two-step nilpotent groups.
"""

from .cases import (
    CaseSpec,
    CompositeLabel,
    TauSpec,
    case_spec,
    tau_spec,
)
from .classify import (
    CheckRow,
    ExpectedVerdict,
    Verdict,
    cross_check,
    expected_verdict,
    sweep,
)
from .irreps import (
    FormalSum,
    IrrepLabel,
    OracleError,
    circle,
    decompose_product,
    dimension,
    so,
    sp,
    su,
    tensor_pair,
    trivial,
    u,
    weight_system,
    weyl_character,
)
from .partitions import (
    Partition,
    canonical,
    contains,
    is_horizontal_strip,
    strip_predecessors,
)
from .sp_pieri import pieri_coefficient, pieri_tensor, tensor_column_sym, tensor_sym_sym

__version__ = "0.1.0"
