"""The call-by-value case study: types, operators, surface syntax, checking."""

from .types import (EXTENSIONS, Base, DepthExceeded, FragmentConfig, Fulfillment,
                    Fun, NAT, NatType, NeedUnfulfilled, Record, TypeExpr,
                    TypeUniverse, UNIT, Variant, all_fragment_configs,
                    build_type_universe, config, done_cont_shape, fun,
                    maybe_shape, parse_type, record, type_to_label, type_to_str,
                    valid_type, variant)
from .ops import CbvOperatorTable, DisabledConstruct
from .surface import SurfaceSyntaxError, parse, parse_value, pretty
from .typecheck import (ArityMismatch, SortMismatch, UnknownVariable,
                        default_names, synthesize, typecheck)

__all__ = [
    "ArityMismatch", "Base", "CbvOperatorTable", "DepthExceeded",
    "DisabledConstruct", "EXTENSIONS", "FragmentConfig", "Fulfillment", "Fun",
    "NAT", "NatType", "NeedUnfulfilled", "Record", "SortMismatch",
    "SurfaceSyntaxError", "TypeExpr", "TypeUniverse", "UNIT", "UnknownVariable",
    "Variant", "all_fragment_configs", "build_type_universe", "config", "default_names", "done_cont_shape", "fun",
    "maybe_shape", "parse", "parse_type", "parse_value", "pretty", "record",
    "synthesize", "type_to_label", "type_to_str", "typecheck", "valid_type",
    "variant",
]
