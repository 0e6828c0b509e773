"""The value reader's contract, pinned as a table.

value_table.json holds, for every input below, what parse_value_literal
made of it when the table was recorded: the accepted value's render_value
and every node's position in pre-order, or the ParseError's message, line
and column.  The inputs are hand-picked rows (the test_value_errors rows
and the cases where a lexical error must win over a syntax error) and
noise drawn with a fixed seed, so the table changes only when the reader's
behaviour does.  Generated well-formed literals, some with characters lost,
make sure that deep and accepted inputs are among them.

Re-record it (only when a change of behaviour is intended) with

    PYTHONPATH=src python tests/test_value_table.py > tests/value_table.json
"""

import json
import random
from pathlib import Path

import pytest

from nestfold.parser import NAT_MAX, ParseError, parse_program
from nestfold.values import VCon, parse_value_literal, render_value

TABLE = Path(__file__).resolve().parent / "value_table.json"

PROGRAMS = {
    "Bush": "data Bush (a : Set) : Set where\n  leaf : Bush a\n"
    "  cons : a -> Bush (Bush a) -> Bush a\n",
    "List": "data List a where\n  nil : List a\n  cc : a -> List a -> List a\n",
    "Bob": "data Bob (a : Set) : Set where\n  robert : a -> Bob a\n"
    "  zimmerman : Dylan (Bob (Dylan a (Bob a))) (Bob a) -> Bob (Dylan a a) -> Bob a\n\n"
    "data Dylan (a b : Set) : Set where\n  duluth : Bob a -> Bob b -> Dylan a b\n"
    "  minnesota : Dylan (Bob a) (Bob b) -> Dylan a b\n",
}

ROWS = [
    # the test_value_errors rows
    "frob 1",
    "cons 4",
    "cons 4 leaf leaf",
    "cons cons leaf",
    "[ 4,, 5 ]",
    "(cons 4 leaf",
    "cons 4 leaf )",
    "'",
    str(NAT_MAX + 1),
    "0" + str(NAT_MAX + 1),
    "²",
    "cons ٣ leaf",
    # a lexical error anywhere wins over a syntax error before it
    "Leaf",
    "cons 1 data",
    "frob 1 ²",
    "cons 4 leaf ) ²",
    # accepted literals, and how positions, comments and lines count
    "cons 4 leaf",
    "cons 'x (cons (cons 'y leaf) leaf)",
    "[ ]",
    "[ 4, [ 8 ] ]",
    "[ 4,\n  [ 8, [ 5 ], [ [ 3 ] ] ],\n  [ [ 7 ], [ ], [ [ [ 7 ] ] ] ]\n]\n",
    "-- a comment\n\tcons 007 -- and another\r\n leaf -- trailing",
    "((((leaf))))",
    f"cons {NAT_MAX} leaf",
    f"cons {'0' * 30}{NAT_MAX} leaf",
    "cons 1 leaf --",
    "cons 1 leaf -",
    "cons 1 leaf ->",
    "cons 1 leaf where",
    "cons 1 where leaf",
    "cons _x leaf",
    "cons 'a' leaf",
    "[1 007]",
    "[1 'x]",
    "[1 : 2]",
    "cons [] []",
    "cons (cons 1) leaf",
    "cons 1 (leaf 2)",
    "leaf 2 3",
    "[leaf 2]",
    "cons 1\n  leaf\n  )",
    "cons 1 leaf -- x\n  )",
    "(cons 1 leaf -- x",
    "[ 1, 2",
    "cons 1 leaf ]",
    "",
    "   \n  -- only a comment",
    "cons 1 9" + "9" * 40 + " leaf",
]

#: (program, target declaration, text) rows beyond the Bush ones.
OTHER_ROWS = [
    ("List", "List", "[1, 2, 3]"),
    ("List", "List", "cc 1 (cc 2 nil)"),
    ("List", "List", "cc 1 [2, [3]]"),
    ("Bob", "Bob", "[ ]"),
    ("Bob", "Bob", "zimmerman (duluth (robert 1) (robert 2)) (robert 'q)"),
    (
        "Bob",
        "Bob",
        "zimmerman (minnesota (duluth (robert (robert 1)) (robert (robert 'a)))) (robert 2)",
    ),
    ("Bob", "Bob", "robert duluth"),
    ("Bob", "Dylan", "duluth (robert 1) robert"),
]

#: The alphabet of test_value_parser_totality_on_noise, and a token-level
#: one whose noise is more often accepted and nests deeper.
CHARS = "consleaf()[],'0123456789¹²٣ \n-"
TOKENS = ["cons", "leaf", " ", " ", " ", "(", ")", "[", "]", ", ", "1", "'x", "\n", "-- c\n"]
GAPS = [" ", " ", " ", "  ", "\n  ", "\t", " -- c\n", "\r\n"]


def literal(rng: random.Random, depth: int, arg: bool = False) -> str:
    """A well-formed Bush literal, spaced at random."""

    def gap() -> str:
        return rng.choice(GAPS)

    pick = rng.randrange(6 if depth else 3)
    if pick == 0:
        return str(rng.choice([0, 1, 42, 7007, NAT_MAX]))
    if pick == 1:
        return rng.choice(["'x", "'y_1", "'q'"])
    if pick == 2:
        return "leaf"
    if pick == 3 or pick == 4:
        s = f"cons{gap()}{literal(rng, depth - 1, True)}{gap()}{literal(rng, depth - 1, True)}"
        return f"({gap()}{s}{gap()})" if arg or pick == 4 else s
    elems = [literal(rng, depth - 1) for _ in range(rng.randrange(4))]
    return "[" + gap() + ("," + gap()).join(elems) + gap() + "]"


def inputs() -> list[tuple[str, str, str]]:
    """Every (program, target declaration, text) row of the table."""
    rng = random.Random(2800)
    rows = [("Bush", "Bush", t) for t in ROWS] + OTHER_ROWS
    for _ in range(200):
        rows.append(("Bush", "Bush", "".join(rng.choices(CHARS, k=rng.randint(0, 40)))))
    for _ in range(100):
        rows.append(("Bush", "Bush", "".join(rng.choices(TOKENS, k=rng.randint(1, 30)))))
    for k in range(100):
        text = literal(rng, rng.randint(1, 5))
        for _ in range(min(k % 3, len(text))):  # none, one or two characters lost
            at = rng.randrange(len(text))
            text = text[:at] + text[at + 1 :]
        rows.append(("Bush", "Bush", text))
    return rows


def positions(v) -> list:
    """Every node's pos, in pre-order."""
    out, stack = [], [v]
    while stack:
        w = stack.pop()
        out.append(list(w.pos) if w.pos else None)
        if w.__class__ is VCon:
            stack.extend(reversed(w.args))
    return out


def outcome(program: str, decl: str, text: str) -> dict:
    p = parse_program(PROGRAMS[program])
    try:
        v = parse_value_literal(text, p, p.decl(decl))
    except ParseError as e:
        (d,) = e.diagnostics
        return {"error": [d.message, d.line, d.col]}
    return {"value": render_value(v), "pos": positions(v)}


INPUTS = inputs()


@pytest.fixture(scope="module")
def table() -> list[dict]:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("i", range(len(INPUTS)))
def test_the_reader_keeps_its_recorded_contract(table, i):
    program, decl, text = INPUTS[i]
    row = table[i]
    assert (row["program"], row["decl"], row["text"]) == (program, decl, text)
    assert outcome(program, decl, text) == row["outcome"]


def test_the_table_covers_both_outcomes(table):
    assert len(table) == len(INPUTS)
    accepted = sum("value" in r["outcome"] for r in table)
    assert 40 <= accepted <= len(table) - 300


if __name__ == "__main__":
    rows = [
        {"program": p, "decl": d, "text": t, "outcome": outcome(p, d, t)} for p, d, t in INPUTS
    ]
    print(json.dumps(rows, indent=0, ensure_ascii=True))
