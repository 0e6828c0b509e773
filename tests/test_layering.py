"""Source-level guards: who may import the term language, and how large a
module may grow before compiling it costs more memory."""

import ast
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nestfold"
TERMS = SRC / "terms.py"

#: Python 3.11's parser compiles a module of more tokens with about 0.5 MB
#: more peak memory (CHANGES.md, the FOUND entry, now MENDED, on compiling
#: derivation.py past 8,192 parser tokens).  The benchmark compiles every
#: module afresh, so peak_rss_mb reads it.
TOKEN_LIMIT = 8192


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports_from(tree: ast.Module, module: str) -> list[str]:
    """The names tree imports from nestfold.<module>, as relative or absolute imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"nestfold.{module}"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name == f"nestfold.{module}"]
    return names


def _defined_names(path: Path) -> set[str]:
    """Every name the module at path defines at its top level."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


TERM_NAMES = _defined_names(TERMS)


@pytest.mark.parametrize(
    "path", sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]), ids=lambda p: p.name
)
def test_the_term_language_is_imported_only_from_terms(path):
    assert {"Var", "Pi", "DerivedDef", "SET", "recursion_witnesses"} <= TERM_NAMES
    tree = _tree(path)
    assert set(_imports_from(tree, "derivation")) & TERM_NAMES == set()
    if path != TERMS and path.parent == SRC:
        classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
        assert classes & TERM_NAMES == set()


def test_the_emitter_imports_nothing_from_the_derivation():
    assert _imports_from(_tree(SRC / "emitter.py"), "derivation") == []


def _parser_tokens(path: Path) -> int:
    """tokenize's tokens, less comments, blank lines and the encoding marker."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as f:
        return sum(t.type not in skip for t in tokenize.tokenize(f.readline))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_module_stays_under_the_parser_token_limit(path):
    n = _parser_tokens(path)
    assert n < TOKEN_LIMIT, (
        f"{path.name} has {n} parser tokens; at {TOKEN_LIMIT} compiling it costs about "
        "0.5 MB more peak RSS (CHANGES.md, the FOUND on compiling derivation.py past "
        f"{TOKEN_LIMIT} parser tokens): split or trim the module"
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_string_or_typing(path):
    """Each costs start-up time (tests/test_cold_start.py checks what loads)."""
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported.isdisjoint({"dataclasses", "string", "typing"})


def _nested_functions(module: str, name: str) -> list[ast.AST]:
    """The lambdas and functions defined inside the top-level function name."""
    (fn,) = [n for n in _tree(SRC / module).body if getattr(n, "name", None) == name]
    return [
        node for node in ast.walk(fn)
        if node is not fn and isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
    ]


@pytest.mark.parametrize("name", ["_hfold", "_hybrid_map", "_ps_to_p", "_run_ps"])
def test_the_bush_oracles_build_no_closure_per_node(name):
    # The direct hfold and hmap hand their payload functions on as frames,
    # and the PS peel its continuations: none makes a function per node.
    assert _nested_functions("runtime.py", name) == []


def test_derive_ind_builds_its_types_with_nfolds_builders():
    # ind's method and base types are nfold's with the values threaded
    # through (derivation._method_type and _base_type): one builder each.
    assert _nested_functions("derivation.py", "derive_ind") == []
