"""Acceptance gate: one test per shipped criterion, one verdict line each.

Run with -s (or read the -v test lines) to see the verdicts; every criterion
prints `criterion N: PASS/FAIL — summary` before asserting.  The sweeps here
deliberately go one size past the documented bound where the distinct-case
quota needs it; the smaller bound is then covered a fortiori.
"""

import time
from pathlib import Path

import pytest

from nestfold.analysis import analyze
from nestfold.cli import main
from nestfold.derivation import derive_group
from nestfold.parser import parse_program
from nestfold.values import parse_value_literal
from nestfold.properties import (
    Folds,
    check_call_counter,
    check_equivalence,
    check_hfold_conformance,
    check_hfold_leaf,
    check_hmap_agreement,
    check_hmap_cons,
    check_map_composition,
    check_map_identity,
    check_spine_fold_agreement,
)
from nestfold.runtime import eval_hfold_via_nfold, halg_catalogue
from nestfold.terms import recursion_witnesses

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = ROOT / "golden"


def _verdict(num: int, summary: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num}: {state} — {summary}{tail}")
    assert passed, f"criterion {num} failed: {summary} {tail}"


def _context(sample: str):
    text = (SAMPLES / sample).read_text()
    (ctx,) = analyze(parse_program(text, source=sample))
    return ctx


@pytest.fixture(scope="module")
def bush():
    return _context("bush.ndt")


@pytest.fixture(scope="module")
def lists():
    return _context("list.ndt")


@pytest.fixture(scope="module")
def bobdylan():
    return _context("bobdylan.ndt")


def test_criterion_1_golden_bush_emission(tmp_path):
    t0 = time.perf_counter()
    code = main(
        ["derive", str(SAMPLES / "bush.ndt"), "--nat-index", "-o", str(tmp_path)]
    )
    elapsed = time.perf_counter() - t0
    emitted = (tmp_path / "Bush.agda").read_bytes()
    golden = (GOLDEN / "Bush.agda").read_bytes()
    _verdict(
        1,
        "nat-index emission is byte-identical to golden/Bush.agda",
        code == 0 and emitted == golden and elapsed < 1.0,
        f"{len(emitted)} bytes in {elapsed:.3f}s",
    )


def test_criterion_2_golden_bobdylan_emission(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["derive", str(SAMPLES / "bobdylan.ndt"), "-o", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    emitted = (tmp_path / "BobDylan.agda").read_bytes()
    golden = (GOLDEN / "BobDylan.agda").read_bytes()
    skipped = "PS bridge: skipped" in out and b"PS bridge: skipped" in emitted
    _verdict(
        2,
        "mutual-group emission matches golden/BobDylan.agda with the bridge skipped",
        code == 0 and emitted == golden and skipped and elapsed < 1.0,
        f"{len(emitted)} bytes in {elapsed:.3f}s",
    )


def test_criterion_3_equivalence_theorem(bush):
    t0 = time.perf_counter()
    r = check_equivalence(Folds(bush), 8)  # size 8 covers the documented size-7 bound
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "the two fold routes agree on every enumerated case",
        r.ok and r.distinct >= 500 and elapsed < 60.0,
        f"{r.cases} cases, {r.distinct} distinct pairs in {elapsed:.2f}s",
    )


def test_criterion_4_map_laws(bush):
    t0 = time.perf_counter()
    ident = check_map_identity(Folds(bush), 8)
    comp = check_map_composition(Folds(bush), 8)
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "map identity and split-depth composition hold exactly",
        ident.ok and comp.ok and elapsed < 60.0,
        f"{ident.cases}+{comp.cases} cases in {elapsed:.2f}s",
    )


def test_criterion_5_hfold_conformance(bush):
    conf = check_hfold_conformance(Folds(bush), 8)
    leaf = check_hfold_leaf(Folds(bush), 8)
    agree = check_hmap_agreement(Folds(bush), 8)
    cons = check_hmap_cons(Folds(bush), 8)
    _verdict(
        5,
        "higher-order fold matches its oracle and its defining equations",
        conf.ok and leaf.ok and agree.ok and cons.ok,
        f"{conf.cases}+{leaf.cases}+{agree.cases}+{cons.cases} cases",
    )


def test_criterion_6_concrete_figures(bush, capsys):
    codes = []
    prints = []
    for algebra, expected in (("sum", "34"), ("length", "4")):
        code = main(
            [
                "eval",
                str(SAMPLES / "bush.ndt"),
                str(SAMPLES / "bush1.ndv"),
                "--algebra",
                algebra,
            ]
        )
        codes.append(code)
        prints.append(capsys.readouterr().out.strip() == expected)
    bush1 = parse_value_literal(
        (SAMPLES / "bush1.ndv").read_text(), bush.program, bush.decls["Bush"]
    )
    cps = halg_catalogue(bush)["cps-sum"]
    via_cps = cps.finish(eval_hfold_via_nfold(bush, cps, "Bush", bush1))
    _verdict(
        6,
        "sum prints 34, length prints 4, and the continuation route sums to 34",
        all(c == 0 for c in codes) and all(prints) and via_cps == 34,
    )


def test_criterion_7_ordinary_list_fold(lists):
    r = check_spine_fold_agreement(Folds(lists), 7)  # lists of length <= 6
    _verdict(
        7,
        "derived fold agrees with the hand-written list fold",
        r.ok and r.cases >= 1000,
        f"{r.cases} cases",
    )


def test_criterion_8_termination_certificates(bush, lists, bobdylan):
    certified = 0
    for ctx, nat_index in (
        (bush, True),
        (bush, False),
        (lists, True),
        (lists, False),
        (bobdylan, False),
    ):
        for d in derive_group(ctx, nat_index=nat_index).defs:
            if d.data is None:
                recursion_witnesses(d)  # raises if a call lacks a witness
                certified += 1
    counters = [
        check_call_counter(Folds(bush), 7),
        check_call_counter(Folds(lists), 6),
        check_call_counter(Folds(bobdylan), 5),
    ]
    _verdict(
        8,
        "every derived definition is certified and call counts stay within size",
        certified > 0 and all(c.ok for c in counters),
        f"{certified} definitions, {sum(c.cases for c in counters)} counter cases",
    )
