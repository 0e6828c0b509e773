"""The benchmark names functions of nestfold by string and by import.

bench/layers.py rebinds every (module, function) pair in TIMED and COUNTED;
renaming or deleting one of them would break `bench/run.py --trace 1`, and
run_suite must call each check through its rebindable module name.
bench/harness.py and bench/test_bench.py import names from the package and
call `nestfold.<name>`; the package's name table must keep each of them.
bench/harness.py names eval targets by string; each must stay a target the
package accepts for its sample.  bench/values.py and bench/harness.py read
attributes of a group's context by name; each must resolve on a real one.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import nestfold
import nestfold.properties as properties
from nestfold.analysis import analyze, context_to_index
from nestfold.parser import parse_program, parse_type_context

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
LAYERS = BENCH / "layers.py"
IMPORTERS = [BENCH / "harness.py", BENCH / "test_bench.py"]
CONTEXT_READERS = [BENCH / "values.py", BENCH / "harness.py"]


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_name_resolves():
    layers = _layers()
    missing = [
        f"nestfold.{module}.{fn}"
        for module, fn in layers.TIMED + layers.COUNTED
        if not callable(getattr(importlib.import_module(f"nestfold.{module}"), fn, None))
    ]
    assert missing == []


@pytest.mark.parametrize("sample, size", [("bush", 4), ("list", 4), ("bobdylan", 3)])
def test_the_tracer_books_every_property_of_a_suite(sample, size):
    # The tracer times each property by rebinding properties.check_*, so a
    # suite that called checks captured at import would book none of them.
    (ctx,) = analyze(parse_program((ROOT / "samples" / f"{sample}.ndt").read_text()))
    tracer = _layers().Tracer()
    tracer.install()
    try:
        report = properties.run_suite(ctx, size)
    finally:
        tracer.uninstall()
    assert report.ok
    for r in report.results:
        assert tracer.counts[f"properties.{r.name}_cases"] == r.cases, r.name
        assert tracer.calls[f"properties.{r.name}"] == 1, r.name


def _package_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every `from nestfold[.module] import name` and
    every `nestfold.name` attribute in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nestfold":
            names |= {(node.module, alias.name) for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "nestfold"
        ):
            names.add(("nestfold", node.attr))
    return names


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute of the
    module, or else one of its submodules."""
    home = importlib.import_module(module)
    if hasattr(home, name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_name_the_benchmark_imports_resolves():
    names = set().union(*map(_package_names, IMPORTERS))
    assert {name for module, name in names if module == "nestfold"} >= {
        "analyze",
        "parse_program",
        "derive_group",
        "emit_agda",
        "module_for_group",
    }
    missing = sorted(f"{module}.{name}" for module, name in names if not _resolves(module, name))
    assert missing == []


def test_the_check_catches_a_name_the_package_dropped(monkeypatch):
    monkeypatch.delitem(nestfold._HOME, "emit_agda")
    assert not _resolves("nestfold", "emit_agda")


def _value_specs(path: Path) -> list[tuple[str, str]]:
    """(sample, target) of every `Values(sample, target, ...)` in one file."""
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Values"
    ]


def test_the_benchmark_has_eval_targets():
    assert len(set(_value_specs(BENCH / "harness.py"))) >= 3


@pytest.mark.parametrize("sample, target", sorted(set(_value_specs(BENCH / "harness.py"))))
def test_every_benchmark_target_translates_in_its_sample(sample, target):
    program = parse_program((ROOT / "samples" / f"{sample}.ndt").read_text())
    t = parse_type_context(target, program)
    (ctx,) = [c for c in analyze(program) if t.head in c.group.decls]
    context_to_index(t, ctx)


def _context_reads(path: Path) -> set[str]:
    """The dotted attribute paths one file reads off a group context: off a
    name `ctx` or an attribute `.ctx`, so `self.ctx.group.decls` reads
    "group" and "group.decls"."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        chain = []
        while isinstance(node, ast.Attribute):
            if node.attr == "ctx":
                break
            chain.append(node.attr)
            node = node.value
        if chain and (isinstance(node, ast.Attribute) or getattr(node, "id", None) == "ctx"):
            reads.add(".".join(reversed(chain)))
    return reads


def _resolves_on(ctx, path: str) -> bool:
    try:
        functools.reduce(getattr, path.split("."), ctx)
    except AttributeError:
        return False
    return True


def test_every_context_attribute_the_benchmark_reads_resolves():
    reads = set().union(*map(_context_reads, CONTEXT_READERS))
    assert reads >= {"decls", "decl_of_app", "arg_templates", "group.decls"}
    for sample in ("list", "bush", "bobdylan"):
        for ctx in analyze(parse_program((ROOT / "samples" / f"{sample}.ndt").read_text())):
            assert sorted(path for path in reads if not _resolves_on(ctx, path)) == []


def test_the_check_catches_a_context_attribute_that_moved():
    assert not _resolves_on(SimpleNamespace(group=SimpleNamespace()), "group.decls")
