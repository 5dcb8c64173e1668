"""The call-by-value case study: types, operators, surface syntax, checking."""

from .types import (EXTENSIONS, Base, DepthExceeded, FragmentConfig, Fun,
                    NAT, NatType, Record, TypeExpr, UNIT, Variant,
                    all_fragment_configs, config, done_cont_shape, fun,
                    maybe_shape, record,
                    type_to_label, type_to_str, types_upto, valid_type, variant)
from .ops import CbvOperatorTable, DisabledConstruct
from .surface import SurfaceSyntaxError, parse, parse_type, parse_value, pretty
from .typecheck import (ArityMismatch, SortMismatch, UnknownVariable,
                        default_names, synthesize, typecheck)

__all__ = [
    "ArityMismatch", "Base", "CbvOperatorTable", "DepthExceeded",
    "DisabledConstruct", "EXTENSIONS", "FragmentConfig", "Fun", "NAT",
    "NatType", "Record", "SortMismatch", "SurfaceSyntaxError", "TypeExpr",
    "UNIT", "UnknownVariable", "Variant",
    "all_fragment_configs", "config", "default_names", "done_cont_shape", "fun",
    "maybe_shape", "parse", "parse_type", "parse_value", "pretty", "record",
    "synthesize", "type_to_label", "type_to_str", "typecheck", "types_upto",
    "valid_type", "variant",
]
