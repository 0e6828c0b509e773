"""Parser tests: declarations, value literals, type contexts, round-trips."""

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nestfold.parser import (
    BASE_TYPES,
    NAT_MAX,
    ParseError,
    Program,
    TApp,
    TVar,
    parse_program,
    parse_type_context,
    render_program,
    render_type_expr,
)
from nestfold.values import Atom, VBase, VCon, parse_value_literal, render_value, value_size

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

BUSH = """\
-- a list whose entries get bushier at every step
data Bush (a : Set) : Set where
  leaf : Bush a
  cons : a -> Bush (Bush a) -> Bush a
"""

LIST = """\
data List a where
  nil : List a
  cc : a -> List a -> List a
"""

BOBDYLAN = """\
data Bob (a : Set) : Set where
  robert : a -> Bob a
  zimmerman : Dylan (Bob (Dylan a (Bob a))) (Bob a) -> Bob (Dylan a a) -> Bob a

data Dylan (a b : Set) : Set where
  duluth : Bob a -> Bob b -> Dylan a b
  minnesota : Dylan (Bob a) (Bob b) -> Dylan a b
"""


def test_bush_structure():
    p = parse_program(BUSH)
    (d,) = p.decls
    assert d.name == "Bush"
    assert d.params == ("a",)
    leaf, cons = d.ctors
    assert leaf.name == "leaf"
    assert leaf.args == ()
    assert leaf.result == TApp("Bush", (TVar("a"),))
    assert cons.name == "cons"
    assert cons.args == (TVar("a"), TApp("Bush", (TApp("Bush", (TVar("a"),)),)))
    assert cons.result == TApp("Bush", (TVar("a"),))


def test_bare_params_without_kind_annotation():
    p = parse_program(LIST)
    (d,) = p.decls
    assert d.params == ("a",)
    assert d.ctor("cc").args == (TVar("a"), TApp("List", (TVar("a"),)))


def test_mutual_forward_reference():
    p = parse_program(BOBDYLAN)
    bob, dylan = p.decls
    assert bob.params == ("a",)
    assert dylan.params == ("a", "b")
    zim = bob.ctor("zimmerman")
    bob_a = TApp("Bob", (TVar("a"),))
    assert zim.args == (
        TApp("Dylan", (TApp("Bob", (TApp("Dylan", (TVar("a"), bob_a)),)), bob_a)),
        TApp("Bob", (TApp("Dylan", (TVar("a"), TVar("a"))),)),
    )
    assert dylan.ctor("minnesota").args == (
        TApp("Dylan", (bob_a, TApp("Bob", (TVar("b"),)))),
    )


def test_grouped_param_annotation():
    p = parse_program("data Pair (a b : Set) : Set where\n  mk : a -> b -> Pair a b\n")
    assert p.decls[0].params == ("a", "b")


def test_zero_param_decl():
    p = parse_program("data Unit where\n  tt : Unit\n")
    assert p.decls[0].params == ()
    assert p.decls[0].ctors[0].result == TApp("Unit")


def test_comments_and_blank_lines_ignored():
    src = "\n-- header\n\ndata T a where\n\n  -- about k\n  k : T a -- trailing\n\n"
    p = parse_program(src)
    assert p.decls[0].ctor("k") is not None


@pytest.mark.parametrize(
    "src, msg",
    [
        ("data T a where\n  k : (a -> a) -> T a\n", "function types are not permitted"),
        ("data T a where\n  k : a a -> T a\n", "cannot be applied"),
        ("data T a where\n  k : T a - T a\n", "stray '-'"),
        ("data T a where\n  k : T a\n  j : \n", "expected a type"),
        ("", "at least one data declaration"),
    ],
)
def test_declaration_errors(src, msg):
    with pytest.raises(ParseError, match=msg):
        parse_program(src)


@pytest.mark.parametrize(
    "src, rendered",
    [
        ("data T a where\n  k : -- c\n", "<input>:2:11: error: expected a type, found end of line"),
        ("data T a -- c\n  k : T a\n", "<input>:1:14: error: expected 'where', found end of line"),
    ],
)
def test_the_end_of_a_line_that_ends_in_a_comment_is_past_it(src, rendered):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert [d.render() for d in e.value.diagnostics] == [rendered]


@pytest.mark.parametrize(
    "src, rendered",
    [
        ("data B\u00fcsh a where\n  leaf : B\u00fcsh a\n", "<input>:1:7: error: unexpected character '\u00fc'"),
        ("data T a where\n  k\u00b2 : T a\n", "<input>:2:4: error: unexpected character '\u00b2'"),
        ("data T \u03b1 where\n  k : T \u03b1\n", "<input>:1:8: error: unexpected character '\u03b1'"),
    ],
)
def test_names_are_ascii(src, rendered):
    with pytest.raises(ParseError) as e:
        parse_program(src)
    assert [d.render() for d in e.value.diagnostics] == [rendered]


def test_atom_names_are_ascii(bush):
    with pytest.raises(ParseError) as e:
        parse_value_literal("cons 'x\u00e9 leaf", bush, bush.decl("Bush"))
    assert [d.render() for d in e.value.diagnostics] == [
        "<value>:1:8: error: unexpected character '\u00e9'"
    ]


def test_parse_program_checks_syntax_only():
    # names and arities are analysis.well_formed's job (tests/test_analysis.py)
    p = parse_program("data T a where\n  k : Wrong -> b -> T a a\n")
    assert p.decls[0].ctor("k").args == (TApp("Wrong"), TVar("b"))


# ---------------------------------------------------------------------------
# Value literals


@pytest.fixture(scope="module")
def bush():
    return parse_program(BUSH)


@pytest.fixture(scope="module")
def bobdylan():
    return parse_program(BOBDYLAN)


def test_constructor_application(bush):
    v = parse_value_literal("cons 4 leaf", bush, bush.decl("Bush"))
    assert v == VCon("cons", (VBase(4), VCon("leaf")))


def test_nested_parens_and_atoms(bush):
    v = parse_value_literal("cons 'x (cons (cons 'y leaf) leaf)", bush, bush.decl("Bush"))
    inner = VCon("cons", (VBase(Atom("y")), VCon("leaf")))
    assert v == VCon("cons", (VBase(Atom("x")), VCon("cons", (inner, VCon("leaf")))))


def test_empty_brackets_are_the_nullary_constructor(bush):
    assert parse_value_literal("[ ]", bush, bush.decl("Bush")) == VCon("leaf")


def test_bracket_sugar_desugars_right_nested(bush):
    v = parse_value_literal("[ 4, [ 8 ] ]", bush, bush.decl("Bush"))
    inner = VCon("cons", (VBase(8), VCon("leaf")))
    assert v == VCon("cons", (VBase(4), VCon("cons", (inner, VCon("leaf")))))


DEEP_BUSH = """\
[ 4,
  [ 8, [ 5 ], [ [ 3 ] ] ],
  [ [ 7 ], [ ], [ [ [ 7 ] ] ] ],
  [ [ [ ], [ [ 0 ] ] ] ]
]
"""


def test_deep_bracket_literal(bush):
    v = parse_value_literal(DEEP_BUSH, bush, bush.decl("Bush"))
    assert value_size(v) == 38

    def payloads(w):
        match w:
            case VBase(p):
                return [p]
            case VCon(_, args):
                return [x for a in args for x in payloads(a)]

    assert payloads(v) == [4, 8, 5, 3, 7, 7, 0]


def test_bracket_sugar_needs_nil_and_cons(bobdylan):
    with pytest.raises(ParseError, match="bracket sugar"):
        parse_value_literal("[ ]", bobdylan, bobdylan.decl("Bob"))


def test_mixed_group_constructors(bobdylan):
    v = parse_value_literal(
        "zimmerman (duluth (robert 1) (robert 2)) (robert 'q)", bobdylan, bobdylan.decl("Bob")
    )
    assert v == VCon(
        "zimmerman",
        (
            VCon("duluth", (VCon("robert", (VBase(1),)), VCon("robert", (VBase(2),)))),
            VCon("robert", (VBase(Atom("q")),)),
        ),
    )


@pytest.mark.parametrize(
    "text, msg",
    [
        ("frob 1", "unknown constructor 'frob'"),
        ("cons 4", "cons takes 2 argument"),
        ("cons 4 leaf leaf", "cons takes 2 argument"),
        ("cons cons leaf", "cons takes 2 argument"),
        ("[ 4,, 5 ]", "expected a value"),
        ("(cons 4 leaf", r"expected \), found end of input"),
        ("cons 4 leaf )", "expected end of input"),
        ("'", "expected a name after the atom quote"),
        (str(NAT_MAX + 1), "exceeds the 64-bit range"),
        ("0" + str(NAT_MAX + 1), "exceeds the 64-bit range"),
        ("\u00b2", "unexpected character '\u00b2'"),
        ("cons \u0663 leaf", "unexpected character '\u0663'"),
    ],
)
def test_value_errors(bush, text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_value_literal(text, bush, bush.decl("Bush"))


def test_largest_natural_accepted(bush):
    v = parse_value_literal(f"cons {NAT_MAX} leaf", bush, bush.decl("Bush"))
    assert v.args[0] == VBase(NAT_MAX)


def test_leading_zeros_do_not_count_toward_the_range(bush):
    v = parse_value_literal(f"cons {'0' * 5000}{NAT_MAX} leaf", bush, bush.decl("Bush"))
    assert v.args[0] == VBase(NAT_MAX)


# ---------------------------------------------------------------------------
# Type contexts


def test_type_context_shapes(bush, bobdylan):
    nat = TVar("Nat")
    assert parse_type_context("Bush Nat", bush) == TApp("Bush", (nat,))
    assert parse_type_context("Bush (Bush Nat)", bush) == TApp(
        "Bush", (TApp("Bush", (nat,)),)
    )
    assert parse_type_context("Dylan (Bob Nat) Atom", bobdylan) == TApp(
        "Dylan", (TApp("Bob", (nat,)), TVar("Atom"))
    )


@pytest.fixture(scope="module")
def bush_and_list():
    return parse_program(BUSH + "\n" + LIST)


@pytest.mark.parametrize(
    "text, msg",
    [
        ("Shrub Nat", "unknown type Shrub"),
        ("Bush Nat Nat", "Bush expects 1 argument"),
        ("Nat", "must name a declaration"),
        ("List", "List expects 1 argument"),
        ("List a", "expected a type context, found 'a'"),
        ("(Nat)", "must name a declaration"),
    ],
)
def test_type_context_errors(bush_and_list, text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_type_context(text, bush_and_list)


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("List (Bush Nat Atom)", "<target>:1:7: error: Bush expects 1 argument(s)"),
        ("Bush (Nat Nat)", "<target>:1:7: error: Nat expects 0 argument(s)"),
        ("List (Shrub Nat)", "<target>:1:7: error: unknown type Shrub in target context"),
        ("Bush (List b)", "<target>:1:12: error: expected a type context, found 'b'"),
        ("Bush (Nat -> Nat)", "<target>:1:6: error: function types are not permitted inside a type"),
        ("Bush Nat -> Nat", "<target>:1:10: error: expected end of target type, found '->'"),
        ("Bush (Bush Nat -- c", "<target>:1:20: error: expected ), found end of input"),
    ],
)
def test_a_target_error_points_at_what_is_wrong(bush_and_list, text, rendered):
    with pytest.raises(ParseError) as e:
        parse_type_context(text, bush_and_list)
    assert [d.render() for d in e.value.diagnostics] == [rendered]


def _type_exprs(program, depth: int) -> list:
    """Every correct-arity type expression over program's declarations and
    the base universes, at most depth applications deep."""
    exprs = [TVar(b) for b in BASE_TYPES]
    for _ in range(depth):
        exprs = [TVar(b) for b in BASE_TYPES] + [
            TApp(d.name, args)
            for d in program.decls
            for args in itertools.product(exprs, repeat=len(d.params))
        ]
    return exprs


@pytest.mark.parametrize("sample", ["bush.ndt", "list.ndt", "bobdylan.ndt"])
def test_targets_and_declarations_share_one_grammar(sample):
    program = parse_program((SAMPLES / sample).read_text())
    targets = [t for t in _type_exprs(program, 2) if isinstance(t, TApp)]
    assert len(targets) > len(program.decls)
    for t in targets:
        assert parse_type_context(render_type_expr(t), program) == t


# ---------------------------------------------------------------------------
# Round-trips


def test_render_program_round_trip_on_examples():
    for src in (BUSH, LIST, BOBDYLAN):
        p = parse_program(src)
        assert parse_program(render_program(p)).decls == p.decls


_atom_names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in ("data", "where")
)

_bush_values = st.deferred(
    lambda: st.one_of(
        st.integers(0, NAT_MAX).map(VBase),
        _atom_names.map(lambda s: VBase(Atom(s))),
        st.just(VCon("leaf")),
        st.tuples(_bush_values, _bush_values).map(lambda ab: VCon("cons", ab)),
    )
)


@given(_bush_values)
def test_render_value_round_trip(v):
    program = parse_program(BUSH)
    assert parse_value_literal(render_value(v), program, program.decl("Bush")) == v


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 3))
    sig = {f"T{i}": draw(st.integers(0, 3)) for i in range(n)}
    fresh = iter(f"c{i}" for i in range(100))

    def type_at(params, depth):
        leaves = [TVar(p) for p in params]
        leaves += [TApp(d) for d, k in sig.items() if k == 0]
        if depth == 0:
            return draw(st.sampled_from(leaves))
        head = draw(st.sampled_from(sorted(sig)))
        return TApp(head, tuple(type_at(params, depth - 1) for _ in range(sig[head])))

    decls = []
    for name, arity in sig.items():
        params = tuple("abc"[:arity])
        result = TApp(name, tuple(TVar(p) for p in params))
        ctors = []
        for _ in range(draw(st.integers(1, 3))):
            n_args = draw(st.integers(0, 3))
            args = tuple(
                type_at(params, draw(st.integers(0, 2))) for _ in range(n_args)
            )
            ctors.append((next(fresh), args, result))
        decls.append((name, params, ctors))
    return decls


@given(_programs())
def test_render_program_round_trip_generated(decls):
    lines = []
    for name, params, ctors in decls:
        lines.append(" ".join(["data", name, *params]) + " where")
        for cname, args, result in ctors:
            from nestfold.parser import render_type_expr

            parts = [render_type_expr(t) for t in (*args, result)]
            lines.append(f"  {cname} : " + " -> ".join(parts))
        lines.append("")
    src = "\n".join(lines)
    p = parse_program(src)
    assert parse_program(render_program(p)).decls == p.decls
    for (name, params, ctors), d in zip(decls, p.decls):
        assert d.name == name and d.params == params
        assert [(c.name, c.args) for c in d.ctors] == [
            (cn, ar) for cn, ar, _ in ctors
        ]


@given(st.text(alphabet="datawhere:->()[],'0123456789\u00b9\u00b2\u0663ab \n-_", max_size=80))
def test_parser_totality_on_noise(text):
    try:
        parse_program(text)
    except ParseError:
        pass


_HEADERS = ["data T a where", "data L (a b : Set) : Set where", "data T : Set where", "data T a"]
_TYPE_WORDS = ["T", "T", "L", "a", "a", "b", "(", ")", "->", "where", "'x", "-- c", "\n"]


@st.composite
def _declaration_noise(draw) -> str:
    """Declarations whose headers and constructor types are drawn from a
    few words each, spaced at random: near misses, and some accepted."""
    gap = st.sampled_from([" ", " ", "  ", "\t", " -- c\n "])
    chunks = []
    for _ in range(draw(st.integers(1, 2))):
        lines = [draw(st.sampled_from(_HEADERS))]
        for _ in range(draw(st.integers(0, 3))):
            words = draw(st.lists(st.sampled_from(_TYPE_WORDS), min_size=1, max_size=6))
            name = draw(st.sampled_from(["k", "j", "K", "_k'", "where"]))
            lines.append(f"  {name} :" + "".join(draw(gap) + w for w in words))
        chunks.append("\n".join(lines))
    end = draw(st.sampled_from(["\n", "", " -- c"]))
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(chunks) + end


@given(
    st.one_of(
        _declaration_noise(),
        st.text(alphabet="datawhere:->()[],'0123456789²ab \n-_\t", max_size=80),
    )
)
def test_declaration_reader_totality_on_noise(text):
    # Only a Program or a ParseError comes out, and what is accepted reads back.
    try:
        p = parse_program(text)
    except ParseError:
        return
    assert p.__class__ is Program
    assert parse_program(render_program(p)).decls == p.decls


@given(st.text(alphabet="consleaf()[],'0123456789\u00b9\u00b2\u0663 \n-", max_size=40))
def test_value_parser_totality_on_noise(text):
    # Only a ParseError may escape, and whatever is accepted reads back.
    program = parse_program(BUSH)
    try:
        v = parse_value_literal(text, program, program.decl("Bush"))
    except ParseError:
        return
    assert parse_value_literal(render_value(v), program, program.decl("Bush")) == v


def test_render_value_of_a_3000_element_list_reads_back():
    # render_value writes one parenthesis per cell, cc 1 (cc 1 (... nil)),
    # and the reader does not recurse on them: under the default recursion
    # limit, the text reads back to the value it was rendered from.
    program = parse_program(LIST)
    v = VCon("nil")
    for _ in range(3000):
        v = VCon("cc", (VBase(1), v))
    text = render_value(v)
    assert text.startswith("cc 1 (cc 1 (") and text.endswith(" nil" + ")" * 2999)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        w = parse_value_literal(text, program, program.decl("List"))
    finally:
        sys.setrecursionlimit(saved)
    assert value_size(w) == 3001
    sys.setrecursionlimit(10_000)  # == compares the two values recursively
    try:
        assert w == v
    finally:
        sys.setrecursionlimit(saved)
