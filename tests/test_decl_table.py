"""The declaration reader's contract, pinned as a table.

decl_table.json holds, for every input below, what parse_program (for a
declaration text) or parse_type_context (for an eval target) made of it when
the table was recorded: the accepted program's render_program and every
position in it (each declaration, its parameters, each constructor and each
node of its types, in pre-order), or the target's render_type_expr and its
nodes' positions; or else the ParseError's message, line and column.

The inputs are the samples, the derivation tests' PROBES and SHAPES, the
error rows of the parser and CLI tests, README's --type examples, and noise
drawn with a fixed seed: characters, token-level mutations of well-formed
texts, one or two characters lost or inserted, and the same texts with
"\\r\\n" line ends, tabs and trailing "--" comments.  So the table changes
only when the reader's behaviour does.

Re-record it (only when a change of behaviour is intended) with

    PYTHONPATH=src:tests python tests/test_decl_table.py > tests/decl_table.json
"""

import json
import random
from pathlib import Path

import pytest

from nestfold.parser import (
    ParseError,
    TApp,
    parse_program,
    parse_type_context,
    render_program,
    render_type_expr,
)

from test_derivation import PROBES, SHAPES
from test_parser import BOBDYLAN, BUSH, LIST, SAMPLES

TABLE = Path(__file__).resolve().parent / "decl_table.json"

#: The program every target row is read against.
TARGET_PROGRAM = BUSH + "\n" + LIST + "\n" + BOBDYLAN

#: Declaration texts from the parser and CLI tests' error rows, and the
#: corners of the grammar around them.
DECL_ROWS = [
    "data T a where\n  k : (a -> a) -> T a\n",
    "data T a where\n  k : a a -> T a\n",
    "data T a where\n  k : T a - T a\n",
    "data T a where\n  k : T a\n  j : \n",
    "",
    "data T a where\n  k : -- c\n",
    "data T a -- c\n  k : T a\n",
    "data Büsh a where\n  leaf : Büsh a\n",
    "data T a where\n  k² : T a\n",
    "data T α where\n  k : T α\n",
    "data T a where\n  k : Wrong -> b -> T a a\n",
    "data Pair (a b : Set) : Set where\n  mk : a -> b -> Pair a b\n",
    "data Unit where\n  tt : Unit\n",
    "\n-- header\n\ndata T a where\n\n  -- about k\n  k : T a -- trailing\n\n",
    "data T a where\n  k : Wrong a -> T a\n  j : b -> T a\n  k : T a\n",
    "data T a where\n  k : T a\n  k : T a a\n  j : List a -> T a\n",
    "data List a where\n  nil : List a\n  cons : a -> List a -> List a\n\n"
    "data Rose a where\n  rose : List (Rose a) -> Rose a\n",
    "data T : Set where\n  j : ¹ -> T\n",
    "data T (a : Set) : Set where\n  k : T a\n  Set : T a\n",
    "data Set (a : Set) : Set where\n  k : Set a\n",
    "data T (forall : Set) : Set where\n  k : T forall\n",
    "data T (a b : Set) c b a : Set where\n  k : T a b c b a\n",
    "data In (a : Set) : Set where\n  k : In a\n  c : a -> In (In a) -> In a\n",
    "data L (a : Set) : Set where\n  z : L a\n  nfold : a -> L a -> L a\n",
    # corners: what ends a line, a sequence or a parameter group
    "data",
    "data T",
    "data T a where",
    "data T a where k : T a\n",
    "data T a where\n  where : T a\n",
    "data T a where\n  data : T a\n",
    "data T a where\n  (k) : T a\n",
    "data T () where\n",
    "data T (a) where\n",
    "data T (a : Set where\n",
    "data T (a : Type) where\n",
    "data T a : Type where\n",
    "data T a : Set\n  k : T a\n",
    "data t a where\n",
    "data T a data where\n",
    "data T a where\n  k T a\n",
    "data T a where\n  k : (T a\n",
    "data T a where\n  k : (T a)) -> T a\n",
    "data T a where\n  k : (T) a -> (T a)\n",
    "data T a where\n  k : (a) a -> T a\n",
    "data T a where\n  k : ((a b) -> c) -> T a\n",
    "data T a where\n  k : T a where\n",
    "data T a where\n  k : T data\n",
    "data T a where\n  k : T 'x -> T a\n",
    "data T a where\n  k : T 007 -> T a\n",
    "data T a where\n  k : [T a] -> T a\n",
    "data T a where\n  k : T a -> \n",
    "data T a where\n  k : T a ->",
    "data T a where\n  k : T a\x00\n",
    "data T a where\n  k : T a\x0c\n",
    "data T a where\n  k : T 9" + "9" * 30 + "\n",
    "data T a where\n  k : T a\n) x\n",
    "data T a where\n  k : T a -- x",
    "   \n  -- only a comment",
    "\n\n",
    "-\n",
    "data T a where\n  k : T a\n  j : T a -> ( T -- c\n  a\n  )",
]

#: Targets from the parser and CLI tests' rows and README's --type examples.
TARGET_ROWS = [
    "Bush Nat",
    "Bush (Bush Nat)",
    "Dylan (Bob Nat) Atom",
    "Shrub Nat",
    "Bush Nat Nat",
    "Nat",
    "Atom",
    "(Nat)",
    "List",
    "List a",
    "List Nat Nat",
    "List (List)",
    "List (Bush Nat Atom)",
    "Bush (Nat Nat)",
    "List (Shrub Nat)",
    "Bush (List b)",
    "Bush (Nat -> Nat)",
    "Bush Nat -> Nat",
    "Bush (Bush Nat -- c",
    "",
    "List Nat",
    "List (List Atom)",
    "Bush Atom",
    "Bob Nat",
    "Dylan Nat Atom",
    "((((List Nat))))",
    "(List) Nat",
    "List Nat\n",
    "\tList\r\n (Bush Nat) -- c",
    "List 'x",
    "List 3",
    "List ²",
    "List Nat -",
    "List data",
    "List (Nat",
    "List Nat)",
    "List ()",
    "List : Nat",
]

#: Alphabets of character noise, and the words of token-level noise.
DECL_CHARS = "datawhere:->()[],'0123456789¹²٣abTS \n-_\t\r"
TARGET_CHARS = "BushListNatAtomBobDylan()->'3² \n-\t"
DECL_WORDS = [
    "data", "where", "T", "a", "b", "Set", "k", ":", "->", "(", ")", " ", " ", "\n",
    "\n  ", "-- c\n", "'x", "7", ",", "-",
]
TARGET_WORDS = ["Bush", "List", "Bob", "Dylan", "Nat", "Atom", "a", "(", ")", " ", " ", "->", "\n"]


def _words(text: str) -> list[str]:
    """text cut at its blanks and parentheses, the cuts kept."""
    out, word = [], ""
    for c in text:
        if c in " \n()":
            out += [word, c] if word else [c]
            word = ""
        else:
            word += c
    return out + [word] if word else out


def _mutated(rng: random.Random, text: str, vocabulary: list[str]) -> str:
    """text with one to three words dropped, repeated, swapped or replaced."""
    ws = _words(text)
    for _ in range(rng.randint(1, 3)):
        if not ws:
            break
        at = rng.randrange(len(ws))
        op = rng.randrange(4)
        if op == 0:
            del ws[at]
        elif op == 1:
            ws.insert(at, ws[at])
        elif op == 2:
            other = rng.randrange(len(ws))
            ws[at], ws[other] = ws[other], ws[at]
        else:
            ws[at] = rng.choice(vocabulary)
    return "".join(ws)


def _edited(rng: random.Random, text: str, alphabet: str, k: int) -> str:
    """text with k characters lost or inserted."""
    for _ in range(k):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and at < len(text):
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(alphabet) + text[at:]
    return text


def _restyled(rng: random.Random, text: str) -> str:
    """text with "\\r\\n" line ends, tabs for spaces or trailing comments."""
    lines = text.split("\n")
    if rng.random() < 0.5:
        lines = [ln.replace(" ", rng.choice(["\t", " \t", "  "])) for ln in lines]
    if rng.random() < 0.5:
        lines = [ln + rng.choice([" -- c", "--", "\t-- x -> (", ""]) for ln in lines]
    return ("\r\n" if rng.random() < 0.5 else "\n").join(lines)


def inputs() -> list[tuple[str, str]]:
    """Every ("decls" or "target", text) row of the table."""
    well_formed = [p.read_text() for p in sorted(SAMPLES.glob("*.ndt"))]
    well_formed += list(PROBES.values()) + list(SHAPES.values())
    targets = TARGET_ROWS[:3] + TARGET_ROWS[20:27]
    rows = [("decls", t) for t in well_formed + DECL_ROWS]
    rows += [("target", t) for t in TARGET_ROWS]
    rng = random.Random(3000)
    for _ in range(150):
        rows.append(("decls", "".join(rng.choices(DECL_CHARS, k=rng.randint(0, 60)))))
    for _ in range(150):
        rows.append(("decls", _mutated(rng, rng.choice(well_formed), DECL_WORDS)))
    for k in range(120):
        rows.append(("decls", _edited(rng, rng.choice(well_formed), DECL_CHARS, k % 3)))
    for k in range(80):
        text = _restyled(rng, rng.choice(well_formed))
        rows.append(("decls", _edited(rng, text, DECL_CHARS, k % 3)))
    for _ in range(80):
        rows.append(("target", "".join(rng.choices(TARGET_CHARS, k=rng.randint(0, 30)))))
    for _ in range(80):
        rows.append(("target", _mutated(rng, rng.choice(targets), TARGET_WORDS)))
    for k in range(40):
        text = _restyled(rng, rng.choice(targets))
        rows.append(("target", _edited(rng, text, TARGET_CHARS, k % 3)))
    return rows


def _type_positions(t) -> list:
    """Every node's pos in t, in pre-order."""
    out, stack = [], [t]
    while stack:
        w = stack.pop()
        out.append(list(w.pos))
        if isinstance(w, TApp):
            stack.extend(reversed(w.args))
    return out


def _program_positions(p) -> list:
    return [
        [
            list(d.pos),
            [list(q) for q in d.param_pos],
            [[list(c.pos), *map(_type_positions, (*c.args, c.result))] for c in d.ctors],
        ]
        for d in p.decls
    ]


def outcome(kind: str, text: str) -> dict:
    try:
        if kind == "decls":
            p = parse_program(text)
            return {"program": render_program(p), "pos": _program_positions(p)}
        t = parse_type_context(text, parse_program(TARGET_PROGRAM))
        return {"type": render_type_expr(t), "pos": _type_positions(t)}
    except ParseError as e:
        (d,) = e.diagnostics
        return {"error": [d.message, d.line, d.col]}


INPUTS = inputs()


@pytest.fixture(scope="module")
def table() -> list[dict]:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("i", range(len(INPUTS)))
def test_the_reader_keeps_its_recorded_contract(table, i):
    kind, text = INPUTS[i]
    row = table[i]
    assert (row["kind"], row["text"]) == (kind, text)
    assert outcome(kind, text) == row["outcome"]


def test_the_table_covers_both_outcomes(table):
    assert len(table) == len(INPUTS)
    for kind in ("decls", "target"):
        rows = [r["outcome"] for r in table if r["kind"] == kind]
        accepted = sum("error" not in r for r in rows)
        assert 30 <= accepted <= len(rows) - 100, kind


if __name__ == "__main__":
    rows = [{"kind": k, "text": t, "outcome": outcome(k, t)} for k, t in INPUTS]
    print(json.dumps(rows, indent=0, ensure_ascii=True))
