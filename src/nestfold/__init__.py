"""nestfold: derive and execute dependently typed folds for nested data types.

_HOMES is the one list of public names: each is listed once, under the
module that defines it, and __all__ is computed from it.  Importing the
package loads none of its modules; a name loads its home module on first
access (PEP 562), so a caller that only parses and analyzes never imports
the value literals, the runtime, the terms, the derivation, the emitter or
the properties.  The home module is loaded by __import__ and read from
sys.modules, so that the package itself imports no importlib.  Names are
looked up afresh on every access rather than cached here: a tool that
rebinds a name in its home module is then seen through the package too.
"""

import sys

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
        "Constructor", "Program", "TypeDecl", "parse_program", "parse_type_context",
        "render_program",
    ),
    "properties": ("Counterexample", "PropertyResult", "SuiteReport", "run_suite"),
    "runtime": (
        "Algebra", "HAlgebra", "RFun", "catalogue", "enumerate_values", "eval_ind",
        "eval_map", "eval_nfold", "eval_nfold_prime", "fold_tape", "halg_catalogue",
        "typecheck_value",
    ),
    "terms": ("DerivedDef", "DerivedGroup", "ind_erases_to_nfold", "recursion_witnesses"),
    "values": ("Atom", "VBase", "VCon", "parse_value_literal", "render_value"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{home}"
    __import__(module)
    return getattr(sys.modules[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
