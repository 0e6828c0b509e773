"""nestfold: derive and execute dependently typed folds for nested data types.

Parsing and analysis load with the package.  The names of the runtime,
derivation, emitter and properties modules load their module on first
access (PEP 562), so a caller that only parses and analyzes never imports
them.  They are looked up afresh on every access rather than cached here:
a tool that rebinds a name in its home module is then seen through the
package too.
"""

from importlib import import_module

from .analysis import (
    GroupContext,
    IndexTypeSpec,
    MutualGroup,
    analyze,
    bush_shape,
    classify,
    enumerate_indices,
    nat_index_eligible,
    render_index,
    well_formed,
)
from .diagnostics import (
    AnalysisError,
    DerivationError,
    Diagnostic,
    EmitError,
    EvalError,
    GuardExceeded,
    NestfoldError,
    ParseError,
    PsBridgeError,
)
from .parser import (
    Atom,
    Constructor,
    Program,
    TypeDecl,
    VBase,
    VCon,
    parse_program,
    parse_type_context,
    parse_value_literal,
    render_program,
    render_value,
)

#: The names that load their home module on first access, per module.
_LAZY_MODULES = {
    "derivation": (
        "DerivedDef",
        "DerivedGroup",
        "derive_group",
        "ind_erases_to_nfold",
        "recursion_witnesses",
    ),
    "emitter": ("EmitModule", "emit_agda", "module_for_group"),
    "properties": ("Counterexample", "PropertyResult", "SuiteReport", "run_suite"),
    "runtime": (
        "Algebra",
        "CallCounter",
        "DepAlgebra",
        "HAlgebra",
        "RFun",
        "catalogue",
        "enumerate_values",
        "eval_ind",
        "eval_map",
        "eval_nfold",
        "eval_nfold_prime",
        "fold_tape",
        "halg_catalogue",
        "typecheck_value",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Algebra",
    "AnalysisError",
    "Atom",
    "CallCounter",
    "Constructor",
    "Counterexample",
    "DepAlgebra",
    "DerivationError",
    "DerivedDef",
    "DerivedGroup",
    "Diagnostic",
    "EmitError",
    "EmitModule",
    "EvalError",
    "GroupContext",
    "GuardExceeded",
    "HAlgebra",
    "IndexTypeSpec",
    "MutualGroup",
    "NestfoldError",
    "ParseError",
    "Program",
    "PropertyResult",
    "PsBridgeError",
    "RFun",
    "SuiteReport",
    "TypeDecl",
    "VBase",
    "VCon",
    "analyze",
    "bush_shape",
    "catalogue",
    "classify",
    "derive_group",
    "emit_agda",
    "enumerate_indices",
    "enumerate_values",
    "eval_ind",
    "eval_map",
    "eval_nfold",
    "eval_nfold_prime",
    "fold_tape",
    "halg_catalogue",
    "ind_erases_to_nfold",
    "module_for_group",
    "nat_index_eligible",
    "parse_program",
    "parse_type_context",
    "parse_value_literal",
    "recursion_witnesses",
    "render_index",
    "render_program",
    "render_value",
    "run_suite",
    "typecheck_value",
    "well_formed",
]
