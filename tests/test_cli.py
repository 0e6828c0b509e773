"""End-to-end CLI tests, run in-process through main()."""

import contextlib
import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nestfold.analysis as analysis
import nestfold.cli as cli
import nestfold.derivation as derivation
import nestfold.parser as parser
import nestfold.runtime as runtime
from nestfold.analysis import analyze, context_to_index
from nestfold.cli import main
from nestfold.parser import parse_program, parse_type_context
from nestfold.runtime import enumerate_values
from nestfold.values import Atom, VBase, VCon, render_value

from test_derivation import _permuting

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = ROOT / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_bush(capsys):
    code, out, _ = run(capsys, "check", SAMPLES / "bush.ndt")
    assert code == 0
    assert out.strip() == "Bush: nested, index ≅ Nat"


def test_check_as_a_module_warns_nothing():
    proc = subprocess.run(
        [sys.executable, "-m", "nestfold.cli", "check", str(SAMPLES / "bush.ndt")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Bush: nested, index ≅ Nat"
    assert proc.stderr == ""


def test_check_list(capsys):
    code, out, _ = run(capsys, "check", SAMPLES / "list.ndt")
    assert code == 0
    assert out.strip() == "List: ordinary"


def test_check_mutual_group(capsys):
    code, out, _ = run(capsys, "check", SAMPLES / "bobdylan.ndt")
    assert code == 0
    assert out.strip() == "Bob, Dylan: nested, mutual, index universe BobDylanIndex"


def test_check_arity_error(capsys):
    code, out, err = run(capsys, "check", SAMPLES / "bad-arity.ndt")
    assert code == 1
    assert "argument" in err
    assert out == ""


def test_check_reports_every_error_once(capsys, tmp_path):
    src = tmp_path / "multi.ndt"
    src.write_text("data T a where\n  k : Wrong a -> T a\n  j : b -> T a\n  k : T a\n")
    code, out, err = run(capsys, "check", src)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"{src}:2:7: error: unknown type constructor Wrong",
        f"{src}:3:7: error: unknown type parameter 'b'",
        f"{src}:4:3: error: duplicate constructor 'k' in T",
    ]


@pytest.mark.parametrize(
    "text",
    ["data T a where\n  k : T a - T a\n", (SAMPLES / "bad-arity.ndt").read_text()],
    ids=["parse-error", "well-formedness-error"],
)
def test_error_prefix_is_printed_once(capsys, tmp_path, text):
    src = tmp_path / "bad.ndt"
    src.write_text(text)
    code, _, err = run(capsys, "check", src)
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith(f"{src}:2:")
    assert line.count("error:") == 1


def test_check_analyzes_every_group_before_printing(capsys, tmp_path):
    src = tmp_path / "mixed.ndt"
    src.write_text(
        (SAMPLES / "list.ndt").read_text()
        + "\ndata Rose a where\n  rose : List (Rose a) -> Rose a\n"
    )
    code, out, err = run(capsys, "check", src)
    assert code == 1
    assert out == ""
    assert "cross-group nesting" in err


ROSE = (
    "data List a where\n  nil : List a\n  cons : a -> List a -> List a\n\n"
    "data Rose a where\n  rose : List (Rose a) -> Rose a\n"
)


@pytest.mark.parametrize("command", ["check", "derive", "eval", "test"])
def test_cross_group_nesting_is_one_positioned_line(capsys, tmp_path, command):
    src = tmp_path / "rose.ndt"
    src.write_text(ROSE)
    extra = {
        "check": [],
        "derive": ["--out", tmp_path],
        "eval": [SAMPLES / "empty.ndv"],
        "test": ["--max-size", "2"],
    }[command]
    code, out, err = run(capsys, command, src, *extra)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"{src}:6:10: error: cross-group nesting not supported in v1"]


def test_check_prints_the_diagnostics_analyze_raises(capsys, tmp_path):
    src = tmp_path / "multi.ndt"
    src.write_text("data T a where\n  k : T a\n  k : T a a\n  j : List a -> T a\n")
    with pytest.raises(analysis.AnalysisError) as e:
        analyze(parse_program(src.read_text(), source=str(src)))
    code, out, err = run(capsys, "check", src)
    assert (code, out) == (1, "")
    assert err.splitlines() == [d.render() for d in e.value.diagnostics]
    assert len(e.value.diagnostics) == 4


@pytest.mark.parametrize("name", ["Nat", "Atom"])
def test_check_refuses_a_declaration_named_after_a_base_universe(capsys, tmp_path, name):
    src = tmp_path / "base.ndt"
    src.write_text(f"data {name} where\n  z : {name}\n  s : {name} -> {name}\n")
    code, out, err = run(capsys, "check", src)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{src}:1:1: error: declaration name {name!r} is reserved for the base universe"
    ]


@pytest.mark.parametrize(
    "decls, line",
    [
        (
            "data T (a : Set) : Set where\n  k : T a\n  Set : T a\n",
            "{src}:3:3: error: constructor name 'Set' is reserved for the universe",
        ),
        (
            "data Set (a : Set) : Set where\n  k : Set a\n",
            "{src}:1:1: error: declaration name 'Set' is reserved for the universe",
        ),
    ],
    ids=["constructor", "declaration"],
)
def test_check_refuses_a_name_set(capsys, tmp_path, decls, line):
    src = tmp_path / "set.ndt"
    src.write_text(decls)
    code, out, err = run(capsys, "check", src)
    assert (code, out) == (1, "")
    assert err.splitlines() == [line.format(src=src)]


@pytest.mark.parametrize(
    "decls, line",
    [
        (
            "data T (forall : Set) : Set where\n  k : T forall\n",
            "{src}:1:9: error: type parameter name 'forall' is an Agda keyword",
        ),
        (
            "data T (a a : Set) : Set where\n  k : T a a\n",
            "{src}:1:11: error: duplicate type parameter 'a' in T",
        ),
        (
            "data T (a b : Set) c b a : Set where\n  k : T a b c b a\n",
            "{src}:1:22: error: duplicate type parameter 'b' in T\n"
            "{src}:1:24: error: duplicate type parameter 'a' in T",
        ),
    ],
    ids=["keyword", "duplicate", "two-duplicates"],
)
def test_check_positions_a_type_parameter_diagnostic_at_the_parameter(
    capsys, tmp_path, decls, line
):
    src = tmp_path / "params.ndt"
    src.write_text(decls)
    code, out, err = run(capsys, "check", src)
    assert (code, out) == (1, "")
    assert err.splitlines() == line.format(src=src).splitlines()


def test_check_positions_the_index_variable_refusal(capsys, tmp_path):
    params = " ".join(f"p{i}" for i in range(27))
    src = tmp_path / "wide.ndt"
    src.write_text(f"data T a where\n  t : T a\n\ndata W {params} where\n  w : W {params}\n")
    code, out, err = run(capsys, "check", src)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{src}:4:1: error: group W needs 27 index variables; only varA..varZ are available"
    ]


@pytest.mark.parametrize("command", ["check", "derive", "eval", "test"])
def test_each_command_validates_the_program_once(capsys, tmp_path, monkeypatch, command):
    real = analysis.well_formed
    calls = []

    def counted(program):
        calls.append(program)
        return real(program)

    monkeypatch.setattr(analysis, "well_formed", counted)
    monkeypatch.delenv("NESTFOLD_AGDA", raising=False)
    extra = {
        "check": [],
        "derive": ["--out", tmp_path],
        "eval": [SAMPLES / "bush1.ndv"],
        "test": ["--max-size", "3"],
    }[command]
    code, _, _ = run(capsys, command, SAMPLES / "bush.ndt", *extra)
    assert code == 0
    assert len(calls) == 1


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such-file.ndt")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# derive


def test_derive_bush_matches_golden(capsys, tmp_path):
    code, out, _ = run(
        capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "-o", tmp_path
    )
    assert code == 0
    assert (tmp_path / "Bush.agda").read_bytes() == (GOLDEN / "Bush.agda").read_bytes()
    assert "Bush: derived " in out
    assert "nfold'" in out


def test_derive_bobdylan_matches_golden_and_reports_skip(capsys, tmp_path):
    code, out, _ = run(capsys, "derive", SAMPLES / "bobdylan.ndt", "-o", tmp_path)
    assert code == 0
    emitted = (tmp_path / "BobDylan.agda").read_bytes()
    assert emitted == (GOLDEN / "BobDylan.agda").read_bytes()
    assert "PS bridge: skipped" in out


def test_derive_list_reports_skip(capsys, tmp_path):
    code, out, _ = run(capsys, "derive", SAMPLES / "list.ndt", "-o", tmp_path)
    assert code == 0
    assert (tmp_path / "List.agda").read_bytes() == (
        ROOT / "bench" / "reference" / "List.agda"
    ).read_bytes()
    assert "hfold-list" in out
    assert "PS bridge: skipped" in out


def _assert_refused(capsys, out_dir, *argv):
    """derive exits 1 with one error line, prints nothing and writes nothing;
    returns the error line."""
    code, out, err = run(capsys, "derive", *argv, "-o", out_dir)
    assert (code, out) == (1, "")
    assert not out_dir.exists()
    (line,) = err.splitlines()
    return line


def test_derive_writes_nothing_when_a_later_group_fails(capsys, tmp_path):
    src = tmp_path / "two.ndt"
    src.write_text((SAMPLES / "list.ndt").read_text() + (SAMPLES / "bobdylan.ndt").read_text())
    line = _assert_refused(capsys, tmp_path / "out", src, "--nat-index")
    assert line.startswith("error: nat-index mode needs exactly one declaration")


def test_derive_refuses_two_groups_with_one_file_name(capsys, tmp_path):
    src = tmp_path / "ab.ndt"
    src.write_text(
        "data A (a : Set) : Set where\n  ka : B a -> A a\n  kz : A a\n"
        "data B (a : Set) : Set where\n  kb : A a -> B a\n"
        "data AB (a : Set) : Set where\n  kab : AB a\n"
    )
    line = _assert_refused(capsys, tmp_path / "out", src)
    assert line == "error: groups (A, B) and (AB) would both be written to AB.agda"


@pytest.mark.parametrize(
    "decls, flags, message",
    [
        (
            "data L (a : Set) : Set where\n  zero : L a\n  cc : a -> L a -> L a\n",
            ["--nat-index"],
            "error: module L binds 'zero' twice: as a constructor of Nat and as a constructor of L",
        ),
        (
            "data L (a : Set) : Set where\n  z : L a\n  I : a -> L a -> L a\n",
            [],
            "error: module L binds 'I' twice: as a constructor of L and as a definition",
        ),
        (
            "data T (a : Set) : Set where\n  t0 : T a\n  t1 : TC a -> T (T a) -> T a\n"
            "data TC (a : Set) : Set where\n  tc : T a -> TC a\n",
            [],
            "error: module TTC binds 'TC' twice: as a constructor of TTCIndex and as a data type",
        ),
        (
            "data Nat (a : Set) : Set where\n  z : Nat a\n  c : a -> Nat (Nat a) -> Nat a\n",
            ["--nat-index"],
            "{src}:1:1: error: declaration name 'Nat' is reserved for the base universe",
        ),
        (
            "data L (a : Set) : Set where\n  z : L a\n  Set : a -> L a -> L a\n",
            [],
            "{src}:3:3: error: constructor name 'Set' is reserved for the universe",
        ),
    ],
    ids=[
        "constructor-constructor", "constructor-definition", "constructor-data", "data-data",
        "constructor-universe",
    ],
)
def test_derive_refuses_a_module_that_binds_a_name_twice(capsys, tmp_path, decls, flags, message):
    src = tmp_path / "clash.ndt"
    src.write_text(decls)
    assert _assert_refused(capsys, tmp_path / "out", src, *flags) == message.format(src=src)


#: Groups of each shape a derivation tells apart, with a constructor {c}.
_CLASH_SHAPES = [
    "data L (a : Set) : Set where\n  z : L a\n  {c} : a -> L a -> L a\n",
    "data B (a : Set) : Set where\n  z : B a\n  {c} : a -> B (B a) -> B a\n",
    "data X (a : Set) : Set where\n  xn : X a\n  {c} : a -> Y a -> X a\n\n"
    "data Y (a : Set) : Set where\n  y : X (Y a) -> Y a\n",
    "data T (a b : Set) : Set where\n  tn : T a b\n  {c} : a -> T b a -> T a b\n",
]


@pytest.mark.parametrize(
    "name", sorted(n for n in derivation._FIXED if parser._end(n + "\0", 0) == len(n))
)
def test_check_refuses_a_constructor_name_that_derive_refuses_in_both_modes(
    capsys, tmp_path, monkeypatch, name
):
    # Each of the derived module's fixed names that can name a constructor:
    # check refuses it, at the name, exactly when derive, without that rule,
    # refuses it for every group in both modes (nat-index mode where the
    # group is eligible).
    src = tmp_path / "c.ndt"
    everywhere = True
    with monkeypatch.context() as m:
        m.setattr(analysis, "DERIVED_NAMES", frozenset())
        for shape in _CLASH_SHAPES:
            (ctx,) = analyze(parse_program(shape.format(c="c")))
            src.write_text(shape.format(c=name))
            for flags in ([], ["--nat-index"])[: 1 + ctx.nat_index_eligible]:
                code, _, _ = run(capsys, "derive", src, "-o", tmp_path / "out", *flags)
                everywhere &= code == 1
    src.write_text(_CLASH_SHAPES[0].format(c=name))
    code, _, err = run(capsys, "check", src)
    assert code == (1 if everywhere else 0), err
    if name in analysis.DERIVED_NAMES:
        assert err.splitlines() == [
            f"{src}:3:3: error: constructor name {name!r} is reserved for a derived definition"
        ]


# Agda reserves its keywords, so a source name that is one is refused where
# it is read; the parser reads a type name only if it is capitalized.
@pytest.mark.parametrize(
    "decls, line",
    [
        (
            "data module (a : Set) : Set where\n  k : module a\n",
            "{src}:1:6: error: expected a capitalized type name, found 'module'",
        ),
        (
            "data T (forall : Set) : Set where\n  k : T forall\n",
            "{src}:1:9: error: type parameter name 'forall' is an Agda keyword",
        ),
        (
            "data T (a : Set) : Set where\n  in : T a\n  k : a -> T a -> T a\n",
            "{src}:2:3: error: constructor name 'in' is an Agda keyword",
        ),
    ],
    ids=["type", "parameter", "constructor"],
)
def test_derive_refuses_an_agda_keyword_as_a_name(capsys, tmp_path, decls, line):
    src = tmp_path / "keyword.ndt"
    src.write_text(decls)
    assert _assert_refused(capsys, tmp_path / "out", src) == line.format(src=src)


def test_derive_primes_a_carrier_named_like_an_agda_keyword(capsys, tmp_path):
    """A declaration's carrier is its lowercased name, so In's would be in."""
    src = tmp_path / "in.ndt"
    src.write_text("data In (a : Set) : Set where\n  k : In a\n  c : a -> In (In a) -> In a\n")
    code, _, err = run(capsys, "derive", src, "-o", tmp_path)
    assert (code, err) == (0, "")
    lines = (tmp_path / "In.agda").read_text().splitlines()
    assert "hfold-in in' k' c' a x =" in lines
    assert [line for line in lines if " in " in f" {line} "] == []


def test_derive_writes_no_empty_binder_for_a_group_without_parameters(capsys, tmp_path):
    src = tmp_path / "n.ndt"
    src.write_text("data N : Set where\n  z : N\n  s : N -> N\n")
    code, _, err = run(capsys, "derive", src, "-o", tmp_path)
    assert (code, err) == (0, "")
    text = (tmp_path / "N.agda").read_text()
    for line in ["        (s' : p NC -> p NC) ->", "nmap i x = nfold (\\ i -> I N i) z s i x"]:
        assert line in text.splitlines()
    assert [empty for empty in ["( :", "{ :", "\\  ->"] if empty in text] == []


@pytest.mark.parametrize(
    "n, line",
    [
        (6, "nmap {a} {b} {c} {d} {e} {f} {a'} {b'} {c'} {d'} {e'} {f'} i f'' g h f4 f5 f6"),
        (9, "        (i' : MIndex) -> I M a b c d e f g h i i' -> p i'"),
    ],
    ids=["six-parameters", "nine-parameters"],
)
def test_derive_writes_a_group_with_six_or_more_parameters(capsys, tmp_path, n, line):
    """The base types a, b, ... are taken first, so nmap's f and nfold's i are primed."""
    src = tmp_path / "many.ndt"
    src.write_text(_permuting(n))
    code, _, err = run(capsys, "derive", src, "-o", tmp_path)
    assert (code, err) == (0, "")
    assert line in (tmp_path / "M.agda").read_text().splitlines()


# Agda reads a pattern variable named like a constructor in scope as that
# constructor, so every derived binder skips the constructor names.
@pytest.mark.parametrize(
    "decls, flags, line",
    [
        (
            "data T (a : Set) : Set where\n  b : T a\n  c : a -> T a -> T a\n",
            [],
            "nmap {a} {b'} i f x = nfold (\\ i -> I T b' i) (\\ i -> b) (\\ i -> c) a f i x",
        ),
        (
            "data T (a : Set) : Set where\n  b : T a\n  c : a -> T a -> T a\n",
            ["--nat-index"],
            "NTimes zero b' a = a",
        ),
        (
            "data T (a : Set) : Set where\n  x : T a\n  y : a -> T (T a) -> T a\n",
            [],
            "nfold p x'' y' a baseA varA x' = baseA x'",
        ),
        (
            "data T (a : Set) : Set where\n  x : T a\n  y : a -> T (T a) -> T a\n",
            ["--nat-index"],
            "nfold p x'' y' a z zero x' = z x'",
        ),
        (
            "data T (a : Set) : Set where\n  p : T a\n  q : a -> T (T a) -> T a\n",
            [],
            "nfold : (p' : TIndex -> Set) ->",
        ),
        (
            "data T (a : Set) : Set where\n  p : T a\n  q : a -> T (T a) -> T a\n",
            ["--nat-index"],
            "nfold : (p' : Nat -> Set) ->",
        ),
    ],
    ids=["b-general", "b-nat", "x-general", "x-nat", "p-general", "p-nat"],
)
def test_derive_primes_a_binder_named_like_a_constructor(capsys, tmp_path, decls, flags, line):
    src = tmp_path / "shadow.ndt"
    src.write_text(decls)
    code, _, err = run(capsys, "derive", src, *flags, "-o", tmp_path)
    assert (code, err) == (0, "")
    assert line in (tmp_path / "T.agda").read_text().splitlines()


_X = "data X (a : Set) : Set where\n  xn : X a\n  xk : a -> Y a -> X a\n\n"


@pytest.mark.parametrize(
    "decls, name, line",
    [
        (
            _X + "data Y (a : Set) : Set where\n  ym : Y a\n  yj : X a -> Y a\n",
            "XY",
            "I x' y a varA = a",
        ),
        (
            _X + "data Y (a : Set) : Set where\n  ym : Y a\n  yj : W a -> Y a\n\n"
            "data W (a : Set) : Set where\n  wm : W a\n  wj : X (W a) -> W a\n",
            "XYW",
            "I x' y w a varA = a",
        ),
    ],
    ids=["XY", "XYW"],
)
def test_derive_gives_a_declaration_named_x_a_primed_carrier(capsys, tmp_path, decls, name, line):
    """hfold's value variable is x, so data X's carrier is x'."""
    src = tmp_path / "x.ndt"
    src.write_text(decls)
    code, _, err = run(capsys, "derive", src, "-o", tmp_path)
    assert (code, err) == (0, "")
    assert line in (tmp_path / f"{name}.agda").read_text().splitlines()


def test_derive_missing_file(capsys):
    code, _, err = run(capsys, "derive", "missing.ndt")
    assert code == 2


def test_derive_rejects_nat_index_for_mutual_groups(capsys, tmp_path):
    code, _, err = run(
        capsys, "derive", SAMPLES / "bobdylan.ndt", "--nat-index", "-o", tmp_path
    )
    assert code == 1
    assert "one declaration" in err


def test_derive_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    code1, out1, _ = run(capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "-o", a)
    code2, out2, _ = run(capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "-o", b)
    assert code1 == code2 == 0
    assert out1.replace(str(a), "OUT") == out2.replace(str(b), "OUT")
    assert (a / "Bush.agda").read_bytes() == (b / "Bush.agda").read_bytes()


def test_derive_rejects_an_unknown_option(capsys, tmp_path):
    code, _, err = run(
        capsys, "derive", SAMPLES / "bush.ndt", "--backend", "coq", "-o", tmp_path
    )
    assert code == 2
    assert "unrecognized arguments: --backend coq" in err


# ---------------------------------------------------------------------------
# the optional external type-check hook


def _fake_agda(tmp_path, exit_code):
    script = tmp_path / "fakeagda"
    script.write_text(f"#!/bin/sh\nexit {exit_code}\n")
    script.chmod(0o755)
    return script


def test_agda_hook_absent_is_a_note(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("NESTFOLD_AGDA", raising=False)
    code, out, _ = run(capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "-o", tmp_path)
    assert code == 0
    assert "NESTFOLD_AGDA is not set" in out


def test_agda_hook_accepts(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NESTFOLD_AGDA", str(_fake_agda(tmp_path, 0)))
    code, out, _ = run(capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "-o", tmp_path)
    assert code == 0
    assert "agda accepted" in out


def test_agda_hook_rejection_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NESTFOLD_AGDA", str(_fake_agda(tmp_path, 1)))
    code, _, err = run(capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "-o", tmp_path)
    assert code == 1
    assert "agda rejected" in err


# ---------------------------------------------------------------------------
# eval


def test_eval_sum_is_34(capsys):
    code, out, _ = run(
        capsys, "eval", SAMPLES / "bush.ndt", SAMPLES / "bush1.ndv", "--algebra", "sum"
    )
    assert code == 0
    assert out.strip() == "34"


def test_eval_length_is_4(capsys):
    code, out, _ = run(
        capsys, "eval", SAMPLES / "bush.ndt", SAMPLES / "bush1.ndv", "--algebra", "length"
    )
    assert code == 0
    assert out.strip() == "4"


def test_eval_empty_sum_is_0(capsys):
    code, out, _ = run(
        capsys, "eval", SAMPLES / "bush.ndt", SAMPLES / "empty.ndv", "--algebra", "sum"
    )
    assert code == 0
    assert out.strip() == "0"


def test_eval_depth_matches_frozen_value(capsys):
    code, out, _ = run(
        capsys, "eval", SAMPLES / "bush.ndt", SAMPLES / "bush1.ndv", "--algebra", "depth"
    )
    assert code == 0
    assert out.strip() == "9"


def test_eval_at_an_explicit_deeper_type(capsys, tmp_path):
    lit = tmp_path / "nested.ndv"
    lit.write_text("[ [ 1 ] ]\n")  # typechecks one level up, at Bush (Bush Nat)
    code, out, _ = run(
        capsys,
        "eval",
        SAMPLES / "bush.ndt",
        lit,
        "--algebra",
        "sum",
        "--type",
        "Bush (Bush Nat)",
    )
    assert code == 0
    assert out.strip() == "1"


def test_eval_ill_typed_value(capsys, tmp_path):
    lit = tmp_path / "bad.ndv"
    lit.write_text("[ [ 1 ] ]\n")  # an element must be a plain natural at Bush Nat
    code, _, err = run(capsys, "eval", SAMPLES / "bush.ndt", lit, "--algebra", "sum")
    assert code == 1
    assert "1:3: error: expected a natural, found constructor 'cons'" in err


def test_eval_names_the_universe_not_the_index_slot(capsys):
    code, _, err = run(
        capsys, "eval", SAMPLES / "list.ndt", SAMPLES / "bush1.ndv",
        "--type", "List (List Nat)",
    )
    assert code == 1
    lines = err.splitlines()
    assert f"{SAMPLES / 'bush1.ndv'}:1:11: error: expected a natural, found constructor 'cc'" in lines
    assert "varA" not in err


def test_eval_unknown_algebra(capsys):
    code, _, err = run(
        capsys, "eval", SAMPLES / "bush.ndt", SAMPLES / "bush1.ndv", "--algebra", "nope"
    )
    assert code == 2
    assert "available: sum, depth, trace, length" in err


def test_eval_checks_the_algebra_before_reading_the_literal(capsys, tmp_path):
    lit = tmp_path / "bad.ndv"
    lit.write_text("[1, x]\n")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--algebra", "nope")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: unknown algebra 'nope' (available: sum, depth, trace, length)"
    ]


def test_eval_mutual_sum(capsys, tmp_path):
    lit = tmp_path / "bob.ndv"
    lit.write_text(
        "zimmerman"
        " (duluth (robert (robert (duluth (robert 1) (robert (robert 2)))))"
        "         (robert (robert 3)))"
        " (robert (duluth (robert 4) (robert 5)))\n"
    )
    code, out, _ = run(
        capsys, "eval", SAMPLES / "bobdylan.ndt", lit, "--algebra", "sum"
    )
    assert code == 0
    assert out.strip() == "15"


#: `eval --algebra trace` output, frozen: the trace algebra encodes each
#: node's index arguments, and no other test pins those bytes.
_TRACE_BUSH1 = (
    "@cons 'varA (@varA 4) (@cons (@BushC 'varA) (@cons 'varA (@varA 8) "
    "(@cons (@BushC 'varA) (@cons 'varA (@varA 5) (@leaf (@BushC 'varA))) "
    "(@cons (@BushC (@BushC 'varA)) (@cons (@BushC 'varA) (@cons 'varA (@varA"
    " 3) (@leaf (@BushC 'varA))) (@leaf (@BushC (@BushC 'varA)))) (@leaf "
    "(@BushC (@BushC (@BushC 'varA))))))) (@cons (@BushC (@BushC 'varA)) "
    "(@cons (@BushC 'varA) (@cons 'varA (@varA 7) (@leaf (@BushC 'varA))) "
    "(@cons (@BushC (@BushC 'varA)) (@leaf (@BushC 'varA)) (@cons (@BushC "
    "(@BushC (@BushC 'varA))) (@cons (@BushC (@BushC 'varA)) (@cons (@BushC "
    "'varA) (@cons 'varA (@varA 7) (@leaf (@BushC 'varA))) (@leaf (@BushC "
    "(@BushC 'varA)))) (@leaf (@BushC (@BushC (@BushC 'varA))))) (@leaf "
    "(@BushC (@BushC (@BushC (@BushC 'varA)))))))) (@cons (@BushC (@BushC "
    "(@BushC 'varA))) (@cons (@BushC (@BushC 'varA)) (@cons (@BushC 'varA) "
    "(@leaf 'varA) (@cons (@BushC (@BushC 'varA)) (@cons (@BushC 'varA) "
    "(@cons 'varA (@varA 0) (@leaf (@BushC 'varA))) (@leaf (@BushC (@BushC "
    "'varA)))) (@leaf (@BushC (@BushC (@BushC 'varA)))))) (@leaf (@BushC "
    "(@BushC (@BushC 'varA))))) (@leaf (@BushC (@BushC (@BushC (@BushC "
    "'varA))))))))"
)
_TRACE_LIST_LIST = (
    "@cc (@ListC 'varA) (@cc 'varA (@varA 1) (@cc 'varA (@varA 2) (@nil "
    "'varA))) (@cc (@ListC 'varA) (@nil 'varA) (@cc (@ListC 'varA) (@cc 'varA"
    " (@varA 3) (@nil 'varA)) (@nil (@ListC 'varA))))"
)
_TRACE_BOB = (
    "@zimmerman 'varA (@duluth (@BobC (@DylanC 'varA (@BobC 'varA))) (@BobC "
    "'varA) (@robert (@BobC (@DylanC 'varA (@BobC 'varA))) (@robert (@DylanC "
    "'varA (@BobC 'varA)) (@duluth 'varA (@BobC 'varA) (@robert 'varA (@varA "
    "1)) (@robert (@BobC 'varA) (@robert 'varA (@varA 2)))))) (@robert (@BobC"
    " 'varA) (@robert 'varA (@varA 3)))) (@robert (@DylanC 'varA 'varA) "
    "(@duluth 'varA 'varA (@robert 'varA (@varA 4)) (@robert 'varA (@varA "
    "5))))"
)


@pytest.mark.parametrize(
    "decls, literal, target, want",
    [
        ("bush.ndt", None, "Bush Nat", _TRACE_BUSH1),
        ("list.ndt", "[[1, 2], [], [3]]", "List (List Nat)", _TRACE_LIST_LIST),
        (
            "bobdylan.ndt",
            "zimmerman (duluth (robert (robert (duluth (robert 1) (robert (robert 2)))))"
            " (robert (robert 3))) (robert (duluth (robert 4) (robert 5)))",
            "Bob Nat",
            _TRACE_BOB,
        ),
    ],
    ids=["bush1", "list-of-lists", "bob"],
)
def test_eval_trace_prints_the_frozen_bytes(capsys, tmp_path, decls, literal, target, want):
    value = SAMPLES / "bush1.ndv"
    if literal is not None:
        value = tmp_path / "v.ndv"
        value.write_text(literal + "\n")
    result = run(
        capsys, "eval", SAMPLES / decls, value, "--type", target, "--algebra", "trace"
    )
    assert result == (0, want + "\n", "")


def test_eval_syntax_error_names_the_value_file(capsys, tmp_path):
    lit = tmp_path / "x.ndv"
    lit.write_text("[ 1, ( ]")
    code, _, err = run(capsys, "eval", SAMPLES / "bush.ndt", lit)
    assert code == 1
    assert err.splitlines() == [f"{lit}:1:8: error: expected a value, found ']'"]


def test_eval_typing_error_names_the_value_file(capsys):
    value = SAMPLES / "bush1.ndv"
    code, _, err = run(capsys, "eval", SAMPLES / "bush.ndt", value, "--type", "Bush Atom")
    assert code == 1
    lines = err.splitlines()
    assert lines[0] == f"{value}:1:3: error: expected an atom, found 4"
    assert all(line.startswith(f"{value}:1:") for line in lines)


@pytest.mark.parametrize(
    "target, line",
    [
        ("", "<target>:1:1: error: expected a type, found end of input"),
        ("Nat", "<target>:1:1: error: target type context must name a declaration"),
        ("Atom", "<target>:1:1: error: target type context must name a declaration"),
        ("List Nat Nat", "<target>:1:1: error: List expects 1 argument(s)"),
        ("List (List)", "<target>:1:7: error: List expects 1 argument(s)"),
        ("List a", "<target>:1:6: error: expected a type context, found 'a'"),
    ],
)
def test_eval_rejects_a_malformed_target_in_one_line(capsys, tmp_path, target, line):
    lit = tmp_path / "v.ndv"
    lit.write_text("[1, 2]\n")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--type", target)
    assert (code, out, err.splitlines()) == (1, "", [line])


def test_eval_reads_its_target_once(capsys, tmp_path, monkeypatch):
    real = parser._read
    targets = []

    def counted(text, source, target):
        if target:
            targets.append(text)
        return real(text, source, target)

    monkeypatch.setattr(parser, "_read", counted)
    lit = tmp_path / "v.ndv"
    lit.write_text("[1, 2]\n")
    code, out, _ = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--type", "List Nat")
    assert (code, out) == (0, "3\n")
    assert targets == ["List Nat"]


@pytest.mark.parametrize("sample", ["bush.ndt", "list.ndt", "bobdylan.ndt"])
def test_the_default_target_is_the_first_declaration_over_naturals(sample):
    (ctx,) = analyze(parse_program((SAMPLES / sample).read_text()))
    idx, universes = context_to_index(cli._default_target(ctx.program), ctx)
    assert idx == ctx.own_index(ctx.group.decls[0])
    assert universes == {k: "nat" for k in range(ctx.base_var_count)}


@pytest.mark.parametrize(
    "text, at",
    [
        ("data B\u00fcsh a where\n  leaf : B\u00fcsh a\n", "1:7: error: unexpected character '\u00fc'"),
        ("data T a where\n  k\u00b2 : T a\n", "2:4: error: unexpected character '\u00b2'"),
    ],
    ids=["type-name", "constructor-name"],
)
@pytest.mark.parametrize("command", ["check", "derive"])
def test_a_non_ascii_name_is_refused_where_it_is_read(capsys, tmp_path, text, at, command):
    src = tmp_path / "u.ndt"
    src.write_text(text)
    extra = ["--out", tmp_path] if command == "derive" else []
    code, out, err = run(capsys, command, src, *extra)
    assert (code, out, err.splitlines()) == (1, "", [f"{src}:{at}"])
    assert not list(tmp_path.glob("*.agda"))


# ---------------------------------------------------------------------------
# no input prints a traceback


def _one_error_line(err):
    (line,) = err.splitlines()
    assert "error:" in line
    assert "Traceback" not in err
    return line


def test_check_non_utf8_declarations(capsys, tmp_path):
    src = tmp_path / "bad.ndt"
    src.write_bytes(b"data T a where\n  k : T a\xff\n")
    code, out, err = run(capsys, "check", src)
    assert code == 2
    assert out == ""
    assert str(src) in _one_error_line(err)


def test_eval_non_utf8_value(capsys, tmp_path):
    lit = tmp_path / "bad.ndv"
    lit.write_bytes(b"[ 1 \xff ]")
    code, out, err = run(capsys, "eval", SAMPLES / "bush.ndt", lit)
    assert code == 2
    assert out == ""
    assert str(lit) in _one_error_line(err)


BOM = "\ufeff".encode()


def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    decls = tmp_path / "list.ndt"
    decls.write_bytes(BOM + (SAMPLES / "list.ndt").read_bytes())
    assert run(capsys, "check", decls) == run(capsys, "check", SAMPLES / "list.ndt")
    plain, marked = tmp_path / "plain.ndv", tmp_path / "marked.ndv"
    plain.write_bytes(b"[1, 2]\n")
    marked.write_bytes(BOM + b"[1, 2]\n")
    expected = run(capsys, "eval", SAMPLES / "list.ndt", plain)
    assert run(capsys, "eval", SAMPLES / "list.ndt", marked) == expected == (0, "3\n", "")


def test_a_byte_order_mark_past_the_start_is_refused(capsys, tmp_path):
    lit = tmp_path / "v.ndv"
    lit.write_bytes(b"[1, " + BOM + b"2]\n")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit)
    assert (code, out, err) == (1, "", f"{lit}:1:5: error: unexpected character '\\ufeff'\n")


def test_a_bad_byte_after_a_byte_order_mark_is_named_by_its_file_offset(capsys, tmp_path):
    lit = tmp_path / "bad.ndv"
    lit.write_bytes(BOM + b"[ 1 \xff ]")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit)
    assert (code, out) == (2, "")
    assert _one_error_line(err) == f"error: {lit}: not UTF-8 text (byte 7: invalid start byte)"


@pytest.fixture
def default_recursion_limit():
    """Run a test under CPython's default recursion limit, whatever the
    runner set."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def _long_list(tmp_path, n):
    lit = tmp_path / "long.ndv"
    lit.write_text("[ " + ", ".join(["1"] * n) + " ]\n")
    return lit


def test_eval_sums_a_100000_element_list(capsys, tmp_path, default_recursion_limit):
    lit = _long_list(tmp_path, 100_000)
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--type", "List Nat")
    assert (code, out, err) == (0, "100000\n", "")


@pytest.mark.parametrize("algebra", ["length", "trace"])
def test_eval_folds_a_20000_element_list(capsys, tmp_path, default_recursion_limit, algebra):
    n = 20_000
    lit = _long_list(tmp_path, n)
    code, out, err = run(
        capsys, "eval", SAMPLES / "list.ndt", lit, "--type", "List Nat", "--algebra", algebra
    )
    assert (code, err) == (0, "")
    if algebra == "length":
        assert out == f"{n}\n"
        return
    cell = "@cc 'varA (@varA 1) "
    assert out.startswith(cell + "(" + cell + "(")
    assert out.endswith(cell + "(@nil 'varA)" + ")" * (n - 1) + "\n")
    assert len(out) == len(cell) * n + len("(@nil 'varA)") + 2 * (n - 1) + 1


def test_eval_reads_a_deeply_parenthesized_value(capsys, tmp_path, default_recursion_limit):
    lit = tmp_path / "deep.ndv"
    lit.write_text("(" * 3000 + "[ 1 ]" + ")" * 3000 + "\n")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--type", "List Nat")
    assert (code, out, err) == (0, "1\n", "")


def test_eval_reads_what_render_value_writes(capsys, tmp_path, default_recursion_limit):
    # A 3000-element list as render_value writes it: cc 1 (cc 1 (... nil)).
    v = VCon("nil")
    for _ in range(3000):
        v = VCon("cc", (VBase(1), v))
    lit = tmp_path / "rendered.ndv"
    lit.write_text(render_value(v) + "\n")
    code, out, err = run(
        capsys, "eval", SAMPLES / "list.ndt", lit, "--type", "List Nat", "--algebra", "sum"
    )
    assert (code, out, err) == (0, "3000\n", "")


def test_a_deeply_parenthesized_target_evaluates(capsys, tmp_path, default_recursion_limit):
    # The declaration reader keeps its open parentheses on a stack of its own.
    lit = tmp_path / "v.ndv"
    lit.write_text("[ 1 ]\n")
    target = "(" * 3000 + "List Nat" + ")" * 3000
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--type", target)
    assert (code, out, err) == (0, "1\n", "")


def test_a_too_deeply_applied_target_is_one_error_line(capsys, tmp_path, default_recursion_limit):
    # A target nested past parser.MAX_APPLICATIONS is refused as it is read.
    lit = tmp_path / "v.ndv"
    lit.write_text("[ 1 ]\n")
    target = "List (" * 3000 + "Nat" + ")" * 3000
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit, "--type", target)
    assert (code, out) == (1, "")
    assert "too deeply" in _one_error_line(err)


def test_check_reads_a_deeply_parenthesized_constructor_argument(
    capsys, tmp_path, default_recursion_limit
):
    src = tmp_path / "deep.ndt"
    deep = "(" * 3000 + "T a" + ")" * 3000
    src.write_text(f"data T a where\n  k : T a\n  j : {deep} -> T a\n")
    code, out, err = run(capsys, "check", src)
    assert (code, out, err) == (0, "T: ordinary\n", "")


def _nested(tmp_path, depth: int, command: str) -> tuple[list, str]:
    """command's arguments on a type nested depth applications deep, and
    where a refusal of that type is positioned.  check, derive and test read
    a declaration whose constructor argument nests that deep; eval reads
    list.ndt, a --type target that nests that deep and a literal that fits
    it, one natural depth brackets down."""
    src = tmp_path / "deep.ndt"
    deep = "T (" * (depth - 1) + "T a" + ")" * (depth - 1)
    src.write_text(f"data T (a : Set) : Set where\n  k : T a\n  j : {deep} -> T a\n")
    if command == "eval":
        lit = tmp_path / "deep.ndv"
        lit.write_text("[ " * depth + "1" + " ]" * depth + "\n")
        target = "List (" * (depth - 1) + "List Nat" + ")" * (depth - 1)
        return ["eval", SAMPLES / "list.ndt", lit, "--type", target], "<target>:1:1"
    name, *mode = command.split()
    flags = {"check": [], "derive": ["-o", tmp_path], "test": ["--max-size", "2"]}
    return [name, src, *flags[name], *mode], f"{src}:3:7"


NESTED_COMMANDS = ["check", "derive", "derive --nat-index", "eval", "test"]


@pytest.mark.parametrize("limit", [1000, 600])
@pytest.mark.parametrize("command", NESTED_COMMANDS)
def test_every_command_accepts_a_type_nested_128_applications_deep(
    capsys, tmp_path, command, limit
):
    # Every walk over a type is bounded by the reader's nesting bound, with
    # room to spare: a walker that spends more frames per level than today's
    # fails here under the lowered limit before it fails a user.
    argv, _ = _nested(tmp_path, 128, command)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.setrecursionlimit(saved)
    assert (code, err) == (0, "")
    if command == "eval":
        assert out == "1\n"


@pytest.mark.parametrize("command", NESTED_COMMANDS)
def test_every_command_refuses_a_type_nested_129_applications_deep_in_one_line(
    capsys, tmp_path, command, default_recursion_limit
):
    argv, at = _nested(tmp_path, 129, command)
    line = f"{at}: error: type nests too deeply: 129 applications, at most 128\n"
    assert run(capsys, *argv) == (1, "", line)


def test_check_accepts_a_mutual_cycle_of_1000_declarations(
    capsys, tmp_path, default_recursion_limit
):
    src = tmp_path / "cycle.ndt"
    decls = [f"data T{i} where\n  c{i} : T{(i + 1) % 1000} -> T{i}\n" for i in range(1000)]
    src.write_text("".join(decls))
    names = ", ".join(f"T{i}" for i in range(1000))
    assert run(capsys, "check", src) == (0, f"{names}: ordinary, mutual\n", "")


@pytest.mark.parametrize(
    "command, name, text, at",
    [
        ("check", "bad.ndt", "data T : Set where\n  j : \u00b9 -> T\n", "2:7"),
        ("eval", "bad.ndv", "[1, \u00b2]\n", "1:5"),
        ("eval", "bad.ndv", "[" + "9" * 5000 + "]\n", "1:2"),
    ],
    ids=["superscript-in-a-declaration", "superscript-in-a-value", "5000-digit-natural"],
)
def test_a_literal_int_cannot_read_is_one_parse_error(capsys, tmp_path, command, name, text, at):
    src = tmp_path / name
    src.write_text(text, encoding="utf-8")
    argv = [command, src] if command == "check" else [command, SAMPLES / "list.ndt", src]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert _one_error_line(err).startswith(f"{src}:{at}: error: ")


def test_a_long_natural_literal_is_named_in_one_short_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("long.ndv").write_text("[" + "9" * 5000 + "]\n")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", "long.ndv")
    assert (code, out) == (1, "")
    line = _one_error_line(err)
    assert line == (
        "long.ndv:1:2: error: natural literal 999999999999999999999999... "
        "(5000 digits) exceeds the 64-bit range"
    )
    assert len(line) < 120


def test_eval_leading_zeros_past_the_digit_limit(capsys, tmp_path):
    lit = tmp_path / "zeros.ndv"
    lit.write_text("[" + "0" * 4999 + "1]\n")
    code, out, err = run(capsys, "eval", SAMPLES / "list.ndt", lit)
    assert (code, out, err) == (0, "1\n", "")


#: Well-typed targets per sample; their literals come from enumeration.
_EVAL_TARGETS = {
    "bush.ndt": ("Bush Nat", "Bush (Bush Nat)", "Bush Atom"),
    "list.ndt": ("List Nat", "List (List Atom)"),
    "bobdylan.ndt": ("Bob Nat", "Dylan Nat Atom"),
}


@functools.cache
def _typed_literals() -> dict[str, list[tuple[str, str]]]:
    """(target, rendered literal) pairs of size at most 3 for every sample."""
    out = {}
    for sample, targets in _EVAL_TARGETS.items():
        (ctx,) = analyze(parse_program((SAMPLES / sample).read_text()))
        out[sample] = []
        for target in targets:
            idx, universes = context_to_index(parse_type_context(target, ctx.program), ctx)
            pool = {
                k: (VBase(1), VBase(2)) if kind == "nat" else (VBase(Atom("q")),)
                for k, kind in universes.items()
            }
            for v in enumerate_values(ctx, idx, pool, 3):
                out[sample].append((target, render_value(v)))
    return out


_TYPE_WORDS = ("Bush", "List", "Bob", "Dylan", "Nat", "Atom", "nat", "Rose", "3", "(", ")", "->")


def _type_strings():
    """Words of the type-context language and junk, juxtaposed and bracketed."""
    apply = lambda terms: st.lists(terms, min_size=1, max_size=3).map(" ".join)
    term = st.recursive(
        st.sampled_from(_TYPE_WORDS), lambda inner: apply(inner).map("({})".format)
    )
    return apply(term)


@st.composite
def _mutated(draw, text):
    at = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 3))
    insert = draw(st.text(alphabet="[](),' 0123456789\u00b2\u0663abcqxyz-\n", max_size=3))
    return text[:at] + insert + text[at + cut:]


@st.composite
def _eval_calls(draw):
    sample = draw(st.sampled_from(sorted(_EVAL_TARGETS)))
    target, text = draw(st.sampled_from(_typed_literals()[sample]))
    # keep the well-typed target and literal about half the time each
    target = draw(st.sampled_from((target, target, None, draw(_type_strings()))))
    text = draw(st.sampled_from((text, draw(_mutated(text)))))
    algebra = draw(st.sampled_from(("sum", "depth", "trace", "length", "nope")))
    return sample, target, text, algebra


@pytest.fixture(scope="module")
def literal_file(tmp_path_factory):
    return tmp_path_factory.mktemp("eval") / "v.ndv"


@settings(max_examples=120, deadline=None)
@given(call=_eval_calls())
def test_eval_keeps_the_exit_code_contract(literal_file, call):
    sample, target, text, algebra = call
    literal_file.write_text(text)
    argv = ["eval", str(SAMPLES / sample), str(literal_file), "--algebra", algebra]
    if target is not None:
        argv += ["--type", target]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n")


# ---------------------------------------------------------------------------
# test


def test_test_bush_passes(capsys):
    code, out, _ = run(capsys, "test", SAMPLES / "bush.ndt", "--max-size", "4")
    assert code == 0
    assert "nfold-vs-nfold-prime: ok" in out
    assert "FAIL" not in out


def test_test_list_runs_the_spine_property(capsys):
    code, out, _ = run(capsys, "test", SAMPLES / "list.ndt", "--max-size", "6")
    assert code == 0
    assert "spine-fold-agreement: ok" in out


def test_test_mutual_group(capsys):
    code, out, _ = run(capsys, "test", SAMPLES / "bobdylan.ndt", "--max-size", "4")
    assert code == 0
    assert "ind-agreement: ok" in out


@pytest.mark.parametrize(
    "sample, size",
    [("list", 4), ("list", 6), ("bush", 6), ("bush", 8), ("bobdylan", 3), ("bobdylan", 4)],
)
def test_test_report_matches_the_reference(capsys, sample, size):
    code, out, err = run(capsys, "test", SAMPLES / f"{sample}.ndt", "--max-size", size)
    assert code == 0
    assert err == ""
    assert out.encode() == (ROOT / "bench" / "reference" / f"{sample}@{size}.txt").read_bytes()


@pytest.mark.parametrize(
    "binary",
    ["k1 : T a -> T a -> T a", "k1 : a -> a -> T a"],
    ids=["tree", "pair"],
)
def test_test_runs_no_list_oracle_off_the_list_shape(capsys, tmp_path, binary):
    src = tmp_path / "t.ndt"
    src.write_text(f"data T (a : Set) : Set where\n  k0 : T a\n  {binary}\n")
    code, out, err = run(capsys, "test", src, "--max-size", "5")
    assert (code, err) == (0, "")
    assert "spine-fold-agreement" not in out


def test_test_max_size_zero_is_a_usage_error(capsys):
    code, _, err = run(capsys, "test", SAMPLES / "bush.ndt", "--max-size", "0")
    assert code == 2
    assert "--max-size" in err


def test_counterexample_is_printed_on_failure(capsys, monkeypatch):
    import nestfold.properties as properties

    monkeypatch.setattr(
        properties, "prepare_nfold_prime", lambda ctx, alg: lambda idx, v: 10**9
    )
    code, out, err = run(capsys, "test", SAMPLES / "bush.ndt", "--max-size", "3")
    assert code == 1
    assert "nfold-vs-nfold-prime: FAIL" in out
    assert "counterexample for nfold-vs-nfold-prime" in err
    assert "algebra:" in err


def _reversed_nfold(ctx, alg, idx, v, memo):
    """A broken _nfold: every node's method gets its argument results reversed."""
    if isinstance(idx, analysis.IVar):
        return alg.bases[idx.k](v)
    at = runtime._args_at(ctx, idx, v)
    rs = [runtime._nfold(ctx, alg, t, sub, None) for t, sub in zip(at, v.args)]
    return alg.methods[v.ctor](idx.args, tuple(reversed(rs)))


def test_a_counterexample_with_results_in_its_slots_is_rendered(capsys, monkeypatch):
    monkeypatch.setattr(runtime, "_nfold", _reversed_nfold)
    code, out, err = run(capsys, "test", SAMPLES / "bush.ndt", "--max-size", "6")
    assert code == 1
    assert "hfold-conformance: FAIL" in out
    assert err.startswith("counterexample for nfold-vs-nfold-prime:\n")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# usage plumbing


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "check" in out and "derive" in out


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(
    capsys, tmp_path, monkeypatch
):
    assert cli._build_parser() is cli._build_parser()
    bush = (SAMPLES / "bush.ndt", SAMPLES / "bush1.ndv")
    assert run(capsys, "eval", *bush, "--algebra", "nope")[0] == 2
    assert run(capsys, "eval", *bush) == (0, "34\n", "")

    code, out, err = run(capsys, "test")
    assert (code, out) == (2, "") and "usage:" in err
    argv = ["test", str(SAMPLES / "list.ndt"), "--max-size", "2"]
    fresh = subprocess.run(
        [sys.executable, "-m", "nestfold.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert fresh.returncode == 0
    assert run(capsys, *argv) == (0, fresh.stdout, "")

    a, b, c = tmp_path / "A", tmp_path / "B", tmp_path / "C"
    c.mkdir()
    assert run(capsys, "derive", SAMPLES / "bush.ndt", "--nat-index", "--out", a)[0] == 0
    assert run(capsys, "derive", SAMPLES / "bush.ndt", "--out", b)[0] == 0
    monkeypatch.chdir(c)
    assert run(capsys, "derive", SAMPLES / "bush.ndt")[0] == 0
    assert (a / "Bush.agda").read_text() == (GOLDEN / "Bush.agda").read_text()
    assert (b / "Bush.agda").read_text() == (c / "Bush.agda").read_text()
    assert (b / "Bush.agda").read_text() != (a / "Bush.agda").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A", "B", "C"]


# ---------------------------------------------------------------------------
# The exit-code contract on declaration text


@st.composite
def _type_arg(draw, params, arity, depth):
    """A parameter, or a declaration of the group applied to smaller types."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(params))
    head = draw(st.sampled_from(sorted(arity)))
    args = [draw(_type_arg(params, arity, depth - 1)) for _ in range(arity[head])]
    return f"({head} {' '.join(args)})"


@st.composite
def _groups(draw):
    """One or two declarations of one or two parameters, each with one or
    two constructors of at most two arguments nested at most two deep."""
    names = ("T", "U")[: draw(st.integers(1, 2))]
    arity = {n: draw(st.sampled_from((1, 1, 1, 2))) for n in names}
    ctors = iter(range(4))
    lines = []
    for n in names:
        params = ("a", "b")[: arity[n]]
        own = " ".join((n, *params))
        lines.append(f"data {own} where")
        for _ in range(draw(st.integers(1, 2))):
            args = draw(st.lists(_type_arg(params, arity, 2), max_size=2))
            lines.append(f"  k{next(ctors)} : {' -> '.join([*args, own])}")
    return "\n".join(lines) + "\n"


def _declaration_texts():
    samples = [(SAMPLES / f"{s}.ndt").read_text() for s in ("list", "bush", "bobdylan")]
    return st.one_of(_groups(), st.sampled_from(samples).flatmap(_mutated))


@pytest.fixture(scope="module")
def decls_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decls")


@settings(max_examples=30, deadline=None)
@given(text=_declaration_texts())
def test_every_command_keeps_the_exit_code_contract_on_declaration_text(decls_dir, text):
    src = decls_dir / "t.ndt"
    src.write_text(text)
    out_dir = str(decls_dir / "out")
    for argv in (
        ["check", str(src)],
        ["derive", str(src), "--out", out_dir],
        ["derive", str(src), "--out", out_dir, "--nat-index"],
        ["test", str(src), "--max-size", "3"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
