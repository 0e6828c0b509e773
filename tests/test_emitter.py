"""Emitter tests: byte-stable goldens, layout invariants, scope checking."""

from pathlib import Path

import pytest

from nestfold.analysis import analyze, classify
from nestfold.derivation import derive_group
from nestfold.diagnostics import EmitError
from nestfold.emitter import (
    EmitModule,
    emit_agda,
    module_for_group,
    render_pattern,
    render_term,
)
from nestfold.parser import parse_program
from nestfold.terms import App, Binder, Clause, DataDecl, DerivedDef, Lam, PCon, Pi, PVar, Var

ROOT = Path(__file__).resolve().parent.parent


def _emit(sample: str, nat: bool) -> str:
    src = (ROOT / "samples" / sample).read_text()
    ctx = analyze(parse_program(src))[0]
    return emit_agda(module_for_group(derive_group(ctx, nat_index=nat)))


@pytest.fixture(scope="module")
def bush_text():
    return _emit("bush.ndt", True)


@pytest.fixture(scope="module")
def bobdylan_text():
    return _emit("bobdylan.ndt", False)


@pytest.fixture(scope="module")
def list_text():
    return _emit("list.ndt", False)


# (sample, nat-index mode, golden file) for every golden module
GOLDENS = {
    "Bush-nat": ("bush.ndt", True, "Bush.agda"),
    "BobDylan-general": ("bobdylan.ndt", False, "BobDylan.agda"),
    "Bush-general": ("bush.ndt", False, "general/Bush.agda"),
    "List-nat": ("list.ndt", True, "nat/List.agda"),
}


@pytest.mark.parametrize("sample, nat, golden", GOLDENS.values(), ids=GOLDENS)
def test_golden_is_byte_identical(sample, nat, golden):
    assert _emit(sample, nat) == (ROOT / "golden" / golden).read_text()


def test_emission_is_deterministic():
    assert _emit("bobdylan.ndt", False) == _emit("bobdylan.ndt", False)
    assert _emit("bush.ndt", True) == _emit("bush.ndt", True)


@pytest.mark.parametrize("which", ["bush_text", "bobdylan_text", "list_text"])
def test_layout_invariants(which, request):
    text = request.getfixturevalue(which)
    assert text.endswith("\n") and not text.endswith("\n\n")
    for line in text.splitlines():
        assert len(line) <= 80, line
        assert line == line.rstrip(), repr(line)
        assert line.isascii()


def test_tabs_never_appear(bush_text, bobdylan_text):
    assert "\t" not in bush_text + bobdylan_text


def test_every_function_carries_a_certificate(bush_text, bobdylan_text):
    # one "Terminates:" comment per function definition (data decls carry none)
    assert bush_text.count("-- Terminates:") == 11
    assert bobdylan_text.count("-- Terminates:") == 6


def test_paper_shaped_lines_survive_verbatim(bush_text):
    assert "PS p A = (n : Nat) -> (A -> p n) -> p (succ n)" in bush_text
    assert "NTimes (succ n) b a = b (NTimes n b a)" in bush_text
    assert "hmap f x = nmap (succ zero) f x" in bush_text
    assert "  c n (nfold p l c a z n x) (nfold p l c a z (succ (succ n)) xs)" in bush_text


def test_a_long_name_wraps_its_header_role_and_breaks_a_binder_at_its_spine():
    long = "Loooooooooooooooooooong"
    src = (ROOT / "samples" / "bush.ndt").read_text().replace("Bush", long)
    lines = emit_agda(module_for_group(derive_group(analyze(parse_program(src))[0]))).splitlines()
    k = lines.index(f"--   {long}Index   index universe (type expressions over")
    assert lines[k + 1] == "--" + " " * 34 + f"{long})"
    k = lines.index(f"        (x2 : I {long} a")
    assert lines[k + 1] == f"          ({long}C ({long}C i))) ->"


def test_mutual_group_emits_forward_declarations(bobdylan_text):
    lines = bobdylan_text.splitlines()
    k = lines.index("data Bob (a : Set) : Set")
    assert lines[k + 1] == "data Dylan (a b : Set) : Set"
    assert "data Bob a where" in lines[k + 2 :]
    assert "data Dylan a b where" in lines[k + 2 :]


def _slice_data_block(text: str, header_prefix: str) -> str:
    lines = text.splitlines()
    start = next(k for k, l in enumerate(lines) if l.startswith(header_prefix))
    end = start
    while end < len(lines) and lines[end].strip():
        end += 1
    return "\n".join(lines[start:end]) + "\n"


@pytest.mark.parametrize(
    "which,header,decl",
    [
        ("bush_text", "data Nat", "Nat"),
        ("bobdylan_text", "data BobDylanIndex", "BobDylanIndex"),
        ("list_text", "data ListIndex", "ListIndex"),
    ],
)
def test_emitted_index_decl_reparses_as_ordinary(which, header, decl, request):
    block = _slice_data_block(request.getfixturevalue(which), header)
    (group,) = classify(parse_program(block))
    assert group.decls == (decl,)
    assert not group.nested


def test_skip_note_lands_in_header(list_text):
    assert "-- PS bridge: skipped (PS bridge not derivable for this shape)" in list_text
    assert "hfold-list" in list_text


def test_unscoped_body_is_rejected():
    bad = DerivedDef(
        name="broken",
        role="should never render",
        signature=Pi((Var("Set"), Var("Set"))),
        clauses=(Clause((PVar("x"),), App(Var("mystery"), (Var("x"),))),),
    )
    with pytest.raises(EmitError, match="unscoped name 'mystery'"):
        emit_agda(EmitModule("Broken", (bad,)))


def test_unknown_pattern_constructor_is_rejected():
    bad = DerivedDef(
        name="broken",
        role="should never render",
        signature=Pi((Var("Set"), Var("Set"))),
        clauses=(Clause((PCon("ghost", (PVar("x"),)),), Var("x")),),
    )
    with pytest.raises(EmitError, match="unknown constructor 'ghost'"):
        emit_agda(EmitModule("Broken", (bad,)))


def _data(name: str) -> DerivedDef:
    return DerivedDef(name=name, role="a type", data=DataDecl((), ()))


def test_a_clause_that_binds_a_name_twice_is_rejected():
    bad = DerivedDef(
        name="f",
        role="should never render",
        signature=Pi((Var("Set"), Var("Set"), Var("Set"))),
        clauses=(Clause((PVar("x"), PVar("x")), Var("x")),),
    )
    with pytest.raises(EmitError, match="^definition 'f' binds 'x' twice in one clause$"):
        emit_agda(EmitModule("Twice", (bad,)))


def test_a_pattern_variable_named_like_a_constructor_is_rejected():
    t = DerivedDef(name="T", role="a type", data=DataDecl((), (("k", Var("T")),)))
    bad = DerivedDef(
        name="f",
        role="should never render",
        signature=Pi((Var("T"), Var("T"))),
        clauses=(Clause((PVar("k"),), Var("k")),),
    )
    with pytest.raises(
        EmitError, match="^definition 'f' binds constructor name 'k' as a pattern variable$"
    ):
        emit_agda(EmitModule("Shadow", (t, bad)))


def test_a_signature_that_binds_a_name_twice_is_rejected():
    sig = Pi((Binder(("x",), Var("A")), Binder(("x",), Var("B")), Var("C")))
    bad = DerivedDef(name="f", role="should never render", signature=sig)
    with pytest.raises(EmitError, match="^definition 'f' binds 'x' twice in its signature$"):
        emit_agda(EmitModule("Twice", (_data("A"), _data("B"), _data("C"), bad)))


@pytest.mark.parametrize(
    "sig, clause, message",
    [
        (Pi((Binder(("in",), Var("T")), Var("T"))), None, "binds the Agda keyword 'in'"),
        (None, Clause((PVar("let"),), Var("let")), "binds the Agda keyword 'let'"),
        (None, Clause((PVar("x"),), Lam(("open",), Var("x"))), "binds the Agda keyword 'open'"),
        (Pi((Binder((), Var("T")), Var("T"))), None, "has a binder that binds no name"),
        (None, Clause((PVar("x"),), Lam((), Var("x"))), "has a lambda that binds no name"),
    ],
    ids=["binder", "pattern", "lambda", "empty-binder", "empty-lambda"],
)
def test_a_keyword_or_an_empty_binder_is_rejected(sig, clause, message):
    t = DerivedDef(name="T", role="a type", data=DataDecl((), (("k", Var("T")),)))
    bad = DerivedDef(
        name="f",
        role="should never render",
        signature=sig or Pi((Var("T"), Var("T"))),
        clauses=(clause,) if clause else (),
    )
    with pytest.raises(EmitError, match=f"^definition 'f' {message}"):
        emit_agda(EmitModule("Keyword", (t, bad)))


def test_empty_module_is_rejected():
    with pytest.raises(EmitError, match="empty module"):
        emit_agda(EmitModule("Nothing", ()))


def test_render_term_parenthesization():
    t = App(Var("f"), (App(Var("g"), (Var("x"),)), Var("y")))
    assert render_term(t) == "f (g x) y"
    lam = Lam(("x",), Var("x"))
    assert render_term(App(Var("f"), (lam,))) == "f (\\ x -> x)"
    assert render_term(Pi((Var("a"), Var("b"))), atom=True) == "(a -> b)"
    assert render_term(lam) == "\\ x -> x"
    lam_pi = Lam(("x",), Pi((Var("a"), Var("b"))))
    assert render_term(App(Var("f"), (lam_pi,))) == "f (\\ x -> a -> b)"


def test_render_pattern_shapes():
    assert render_pattern(PCon("zero")) == "zero"
    assert render_pattern(PCon("succ", (PVar("n"),))) == "(succ n)"
    assert render_pattern(PVar("a", implicit=True)) == "{a}"
