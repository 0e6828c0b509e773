"""nestfold: derive and execute dependently typed folds for nested data types.

_HOMES is the one list of public names: each is listed once, under the
module that defines it, and __all__ is computed from it.  Importing the
package loads none of its modules; a name loads its home module on first
access (PEP 562), so a caller that only parses and analyzes never imports
the runtime, the terms, the derivation, the emitter or the properties.  Names are
looked up afresh on every access rather than cached here: a tool that
rebinds a name in its home module is then seen through the package too.
"""

from importlib import import_module

#: Every public name, per home module.
_HOMES = {
    "analysis": (
        "GroupContext", "MutualGroup", "analyze", "classify", "enumerate_indices",
        "render_index", "well_formed",
    ),
    "derivation": ("derive_group",),
    "diagnostics": (
        "AnalysisError", "DerivationError", "Diagnostic", "DiagnosticError", "EmitError",
        "EvalError", "GuardExceeded", "NestfoldError", "ParseError",
    ),
    "emitter": ("EmitModule", "emit_agda", "module_for_group"),
    "parser": (
        "Atom", "Constructor", "Program", "TypeDecl", "VBase", "VCon", "parse_program",
        "parse_type_context", "parse_value_literal", "render_program", "render_value",
    ),
    "properties": ("Counterexample", "PropertyResult", "SuiteReport", "run_suite"),
    "runtime": (
        "Algebra", "HAlgebra", "RFun", "catalogue", "enumerate_values", "eval_ind",
        "eval_map", "eval_nfold", "eval_nfold_prime", "fold_tape", "halg_catalogue",
        "typecheck_value",
    ),
    "terms": ("DerivedDef", "DerivedGroup", "ind_erases_to_nfold", "recursion_witnesses"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
