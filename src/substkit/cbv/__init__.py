"""The call-by-value case study: types and operators.

The reader (:mod:`.surface`), the typechecker (:mod:`.typecheck`) and the
corpus generator (:mod:`.gen`) are imported from their own modules, so a
caller that only needs types and operators does not load them.
"""

from .types import (EXTENSIONS, Base, DepthExceeded, FragmentConfig, Fun,
                    NAT, NatType, Record, TypeExpr, UNIT, Variant,
                    all_fragment_configs, config, done_cont_shape, fun,
                    maybe_shape, record,
                    type_to_label, type_to_str, types_upto, valid_type, variant)
from .ops import CbvOperatorTable, DisabledConstruct

__all__ = [
    "Base", "CbvOperatorTable", "DepthExceeded", "DisabledConstruct",
    "EXTENSIONS", "FragmentConfig", "Fun", "NAT", "NatType", "Record",
    "TypeExpr", "UNIT", "Variant",
    "all_fragment_configs", "config", "done_cont_shape", "fun", "maybe_shape",
    "record", "type_to_label", "type_to_str", "types_upto", "valid_type",
    "variant",
]
