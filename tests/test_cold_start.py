"""Cold start: the package and each command load only the layers they run.

Every case runs in a fresh interpreter started with -S, as a command would
start, and lists the nestfold modules it loaded.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nestfold

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"

#: What `from nestfold import analyze, parse_program` loads.
SURFACE = {"nestfold", "nestfold.analysis", "nestfold.diagnostics", "nestfold.parser"}

_LIST_LOADED = (
    "import sys\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'nestfold')))\n"
)


def _loaded(code: str, *argv) -> set[str]:
    """The nestfold modules loaded after running code, with argv as
    sys.argv[1:], in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "\n" + _LIST_LOADED, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_the_package_alone_loads_no_module():
    assert _loaded("import nestfold") == {"nestfold"}


def test_parse_and_analyze_load_only_the_surface():
    assert _loaded("from nestfold import analyze, parse_program") == SURFACE


def test_the_parser_alone_does_not_load_the_value_literals():
    assert "nestfold.values" not in _loaded("import nestfold.parser")


def test_the_parser_reads_the_value_functions_from_values():
    import nestfold.parser as parser
    import nestfold.values as values

    for name in ("parse_value_literal", "render_value", "value_size"):
        assert getattr(parser, name) is getattr(values, name), name
    with pytest.raises(AttributeError, match="no attribute 'VCon'"):
        parser.VCon  # noqa: B018


def _command(*argv) -> set[str]:
    """The modules loaded by one command, which must exit 0."""
    return _loaded(
        "from nestfold.cli import main\n"
        f"assert main({[str(a) for a in argv]!r}) == 0\n"
    )


def test_check_adds_only_the_cli():
    assert _command("check", SAMPLES / "bush.ndt") == SURFACE | {"nestfold.cli"}


def test_eval_adds_the_runtime(tmp_path):
    value = tmp_path / "v.ndv"
    value.write_text("[1, 2]\n")
    loaded = _command("eval", SAMPLES / "list.ndt", value)
    assert loaded == SURFACE | {"nestfold.cli", "nestfold.runtime", "nestfold.values"}


def test_test_adds_the_runtime_and_the_properties():
    loaded = _command("test", SAMPLES / "list.ndt", "--max-size", "2")
    assert loaded == SURFACE | {
        "nestfold.cli", "nestfold.runtime", "nestfold.properties", "nestfold.values"
    }


def test_derive_adds_the_derivation_and_the_emitter(tmp_path):
    loaded = _command("derive", SAMPLES / "list.ndt", "--out", tmp_path)
    assert loaded == SURFACE | {
        "nestfold.cli", "nestfold.derivation", "nestfold.emitter", "nestfold.terms"
    }


def test_each_public_name_is_its_home_modules_object():
    for name in nestfold.__all__:
        obj = getattr(nestfold, name)
        assert obj.__module__.startswith("nestfold."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_a_name_rebound_in_its_home_module_is_seen_through_the_package(monkeypatch):
    import nestfold.runtime as runtime

    rebound = object()
    monkeypatch.setattr(runtime, "eval_nfold", rebound)
    assert nestfold.eval_nfold is rebound


def test_dir_lists_every_public_name():
    assert set(nestfold.__all__) <= set(dir(nestfold))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nestfold.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from nestfold import no_such_name  # noqa: F401


#: Standard-library modules that nothing nestfold runs needs: dataclasses
#: alone loads inspect, ast, dis, tokenize, enum, re and copy.
UNUSED_STDLIB = ("dataclasses", "inspect", "string", "typing")

#: Standard-library modules that parsing and analyzing do not need, though
#: every command loads functools (and collections) through argparse.
SETUP_UNUSED_STDLIB = ("functools", "collections", "importlib", "warnings")


def _unused_loaded(code: str, *argv, unused: tuple[str, ...] = UNUSED_STDLIB) -> list[str]:
    """The `unused` modules loaded after running code, with argv as
    sys.argv[1:], in a fresh interpreter started with -S."""
    listed = f"import sys\nprint(' '.join(m for m in {unused!r} if m in sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "\n" + listed, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_the_surface_loads_no_unused_stdlib_module():
    code = (
        "import sys\n"
        "from nestfold import NestfoldError, analyze, parse_program\n"
        "for f in sys.argv[1:]:\n"
        "    try:\n"
        "        analyze(parse_program(open(f).read(), source=f))\n"
        "    except NestfoldError:\n"
        "        pass\n"
    )
    samples = sorted(SAMPLES.glob("*.ndt"))
    unused = UNUSED_STDLIB + SETUP_UNUSED_STDLIB
    assert _unused_loaded(code, *samples, unused=unused) == []
    assert _loaded(code, *samples) == SURFACE


@pytest.mark.parametrize(
    "argv",
    [
        ["check", SAMPLES / "bush.ndt"],
        ["eval", SAMPLES / "bush.ndt", SAMPLES / "bush1.ndv", "--algebra", "sum"],
        ["test", SAMPLES / "bobdylan.ndt", "--max-size", "2"],
        ["derive", SAMPLES / "bush.ndt", "--out", "{tmp}"],
    ],
    ids=["check", "eval", "test", "derive"],
)
def test_no_command_loads_an_unused_stdlib_module(tmp_path, argv):
    args = [str(a).format(tmp=tmp_path) for a in argv]
    code = f"from nestfold.cli import main\nassert main({args!r}) == 0\n"
    assert _unused_loaded(code) == []
