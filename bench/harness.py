"""Workloads, operations and correctness gates of the nestfold benchmark.

The `test` and `eval` operations go through `nestfold.cli.main`, the function
behind the `nestfold` command, with stdout captured; `derive` calls the same
public functions as the command, without writing files.  Every output is
checked against a reference after the clock stops.  Calls go through module
attributes, so that a Tracer's rebinding sees them.  Operations run one at a
time in this one process (a closed loop): a cycle derives, evaluates and
tests, and the next cycle starts when the previous one has finished.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import nestfold
from nestfold import analyze, cli, parse_program
from nestfold.analysis import context_to_index
from nestfold.parser import parse_type_context
from nestfold.runtime import catalogue

import values
from layers import EnumerationCounter, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SAMPLES = ROOT / "samples"
GOLDEN = ROOT / "golden"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"

#: Derive passes per cycle: one pass takes milliseconds, so a median needs many.
DERIVE_REPEATS = 4

#: Generated values nest at most this deep, far below the recursion limit
#: (deep values are a known exit-code defect, not a performance workload).
GROW_DEPTH = 120

#: Seconds one calibration loop takes at the reference speed.  Every time is
#: reported rescaled to that speed: the host's speed drifts by up to 1.5x,
#: and nestfold's times drift with it (see README.md).
CALIBRATION_REF_S = 0.010

#: Calibration loops timed between two operations.
CALIBRATION_LOOPS = 5

#: Seconds `python -S -c pass` takes at the reference speed; set-up times are
#: reported rescaled to it.
BARE_START_REF_S = 0.010


def calibration() -> list[float]:
    """Wall seconds of a fixed pure-Python loop that runs no nestfold code,
    timed CALIBRATION_LOOPS times."""
    out = []
    for _ in range(CALIBRATION_LOOPS):
        t = time.perf_counter()
        x = 0
        for i in range(150_000):
            x += i * i
        out.append(time.perf_counter() - t)
    return out


#: Set-up in a fresh interpreter, run with -S: the site packages of the host's
#: Python are not nestfold's set-up cost.
_SETUP = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from nestfold import analyze, parse_program\n"
    "for f in sys.argv[2:]:\n"
    "    analyze(parse_program(open(f).read(), source=f))\n"
)


@dataclass(frozen=True)
class Values:
    """Generated values of one type: values of about `nodes` nodes each are
    drawn until they hold `total` nodes, so a pass does the same amount of
    work whatever the seed."""

    sample: str
    target: str
    nodes: int
    total: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suites: tuple[tuple[str, int], ...]  # (sample, --max-size)
    derives: tuple[tuple[str, str, bool], ...]  # (sample, group, --nat-index)
    values: tuple[Values, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-list",
            "test list.ndt at size 6: an ordinary type where evaluation dominates "
            "and enumeration is about 1%",
            suites=(("list", 6),),
            derives=(("list", "List", False),),
            values=(Values("list", "List (List Nat)", 60, 600),),
        ),
        Workload(
            "suite-bush",
            "test bush.ndt at size 8: the only workload that runs nfold', both "
            "hfold routes, the direct hmap and map composition",
            suites=(("bush", 8),),
            derives=(("bush", "Bush", True),),
            values=(Values("bush", "Bush Nat", 60, 600),),
        ),
        Workload(
            "suite-bobdylan",
            "test bobdylan.ndt at size 4: a mutual group with a two-variable index "
            "universe where enumeration dominates and evaluation is small",
            suites=(("bobdylan", 4),),
            derives=(("bobdylan", "BobDylan", False),),
            values=(Values("bobdylan", "Bob Nat", 60, 600),),
        ),
        Workload(
            "oneshot",
            "derive and eval every sample, with large seeded values, and small list and "
            "bobdylan suites: parse, analyze, derive, emit and value typing weigh most",
            suites=(("list", 4), ("bobdylan", 3)),
            derives=(
                ("list", "List", False),
                ("bush", "Bush", True),
                ("bobdylan", "BobDylan", False),
            ),
            values=(
                Values("bush", "Bush Nat", 300, 3000),
                Values("list", "List (List Nat)", 100, 2000),
                Values("bobdylan", "Bob Nat", 200, 1600),
            ),
        ),
    )
}

#: Emitted modules are compared byte for byte with these files.
DERIVE_REFERENCE = {
    "Bush": GOLDEN / "Bush.agda",
    "BobDylan": GOLDEN / "BobDylan.agda",
    "List": REFERENCE / "List.agda",
}

_CASES = re.compile(r"^  (\S+): \w+, (\d+) cases", re.M)


def suite_reference(refdir: Path, sample: str, size: int) -> Path:
    return refdir / f"{sample}@{size}.txt"


def _decls(sample: str) -> str:
    return str(SAMPLES / f"{sample}.ndt")


def _spawn(argv: list[str]) -> float:
    """Wall seconds of a child process, which must exit with code 0.

    No timeout: with one, the wait polls with growing sleeps, and the times
    come out in steps of up to 50 ms."""
    t = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - t


def _call(argv: list[str]) -> tuple[int, str, float, float]:
    """Run the command once: exit code, stdout, wall and CPU seconds.  An
    exception escaping main is a failed operation, never a crash of the run."""
    out = io.StringIO()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as e:  # noqa: BLE001 - counted in fail_ratio below
        print(f"error: {' '.join(argv)} raised {type(e).__name__}: {e}", file=sys.stderr)
        code = -1
    return code, out.getvalue(), time.perf_counter() - w0, time.process_time() - c0


@dataclass
class _Value:
    sample: str
    target: str
    path: Path
    nodes: int
    expected: dict[str, int | None]  # algebra -> independent result (None: first run's)


@dataclass
class Run:
    """One workload run: its prepared inputs, references and measurements."""

    workload: Workload
    seed: int
    refdir: Path = REFERENCE
    work: Path = OUT
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)  # rescaled
    raw: dict[str, list[float]] = field(default_factory=dict)  # as measured
    cases: dict[str, int] = field(default_factory=dict)
    values_enumerated: int | None = None

    def __post_init__(self):
        w = self.workload
        self.tag = f"{w.name}-seed{self.seed}"
        self.scratch = self.work / self.tag
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self.suite_refs = [
            (s, n, suite_reference(self.refdir, s, n).read_text()) for s, n in w.suites
        ]
        self.derive_refs = {g: DERIVE_REFERENCE[g].read_bytes() for _, g, _ in w.derives}
        self.values = self._make_values()
        self._calibration = calibration()

    def _make_values(self) -> list[_Value]:
        rng = random.Random(self.seed)
        out: list[_Value] = []
        for spec in self.workload.values:
            program = parse_program(Path(_decls(spec.sample)).read_text())
            tctx = parse_type_context(spec.target, program)
            ctx = next(c for c in analyze(program) if tctx.head in c.group.decls)
            idx, _ = context_to_index(tctx, ctx)
            spine = values.spine_pair(ctx)
            held = 0
            while held < spec.total:
                tree = values.generate(ctx, idx, spec.nodes, GROW_DEPTH, rng)
                expected: dict[str, int | None] = {a: None for a in catalogue(ctx)}
                expected["sum"] = values.fold_sum(tree)
                expected["depth"] = values.fold_depth(tree)
                if "length" in expected:
                    expected["length"] = values.spine_length(tree, spine)
                path = self.scratch / f"{spec.sample}-{len(out)}.ndv"
                path.write_text(values.render(tree, spine) + "\n")
                nodes = values.count_nodes(tree)
                held += nodes
                out.append(_Value(spec.sample, spec.target, path, nodes, expected))
        return out

    # -- operations ------------------------------------------------------------
    # Each returns its raw seconds; cycle() rescales and records them.

    def _gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {self.tag}: {what}", file=sys.stderr)

    def derive(self) -> dict[str, list[float]]:
        """What `nestfold derive` computes, without writing the files: parse,
        analyze, derive and emit every sample; the modules are checked after."""
        passes = []
        for _ in range(DERIVE_REPEATS):
            emitted: dict[str, str] = {}
            t = time.perf_counter()
            try:
                for sample, _, nat in self.workload.derives:
                    path = _decls(sample)
                    program = nestfold.parse_program(Path(path).read_text(), source=path)
                    for ctx in nestfold.analyze(program):
                        group = nestfold.derive_group(ctx, nat)
                        emitted[ctx.name] = nestfold.emit_agda(nestfold.module_for_group(group))
            except Exception as e:  # noqa: BLE001 - counted in fail_ratio below
                print(f"error: derive raised {type(e).__name__}: {e}", file=sys.stderr)
            passes.append(time.perf_counter() - t)
            for _, group, _ in self.workload.derives:
                ok = emitted.get(group, "").encode() == self.derive_refs[group]
                self._gate(ok, f"derive {group}")
        return {"derive_s": passes}

    def evaluate(self) -> dict[str, list[float]]:
        wall, results = 0.0, []
        for v in self.values:
            for alg in v.expected:
                argv = ["eval", _decls(v.sample), str(v.path), "--type", v.target, "--algebra", alg]
                code, out, w, _ = _call(argv)
                wall += w
                results.append((v, alg, code, out.strip()))
        for v, alg, code, out in results:
            want = v.expected[alg]
            if want is None and code == 0:
                # No independent fold (trace): the first result is the reference.
                v.expected[alg] = want = out
            self._gate(code == 0 and out == str(want), f"eval {v.path.name} {alg}")
        return {"eval_s": [wall]}

    def test(self) -> dict[str, list[float]]:
        wall = cpu = 0.0
        results = []
        for sample, size, ref in self.suite_refs:
            code, out, w, c = _call(["test", _decls(sample), "--max-size", str(size)])
            wall, cpu = wall + w, cpu + c
            results.append((sample, size, ref, code, out))
        for sample, size, ref, code, out in results:
            self._gate(code == 0 and out == ref, f"test {sample} --max-size {size}")
            for prop, n in _CASES.findall(out):
                self.cases[f"{sample}@{size} {prop}"] = int(n)
        return {"suite_s": [wall], "suite_cpu_s": [cpu]}

    def _scale(self) -> float:
        """Reference speed over host speed: the median of the calibration
        loops on either side of the operation that just ended.  The host
        flips between speeds faster than an operation lasts, and the median
        follows the speed it mostly ran at."""
        before, self._calibration = self._calibration, calibration()
        return CALIBRATION_REF_S / statistics.median(before + self._calibration)

    def cycle(self, tracer: Tracer | None = None) -> float:
        """Derive, evaluate and test once, and set up once when untraced;
        returns the cycle's median scale."""
        if tracer is None:
            self.setup()
        scales = []
        for op in (self.derive, self.evaluate, self.test):
            gc.collect()  # each operation starts from a clean heap, as a fresh command would
            if tracer is None:
                raw = op()
            else:
                with tracer.root(f"bench.{op.__name__}"):
                    raw = op()
            scales.append(self._scale())
            for metric, seconds in raw.items():
                self.raw.setdefault(metric, []).extend(seconds)
                self.samples.setdefault(metric, []).extend(x * scales[-1] for x in seconds)
        return statistics.median(scales)

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """A fresh interpreter to ready: import, parse_program and analyze.

        Starting a process slows with the host in ways the calibration loop
        does not see, so this time is rescaled by a bare interpreter started
        just before it instead.
        """
        decls = sorted({_decls(s) for s, _ in self.workload.suites})
        bare = _spawn([sys.executable, "-S", "-c", "pass"])
        full = _spawn([sys.executable, "-S", "-c", _SETUP, str(SRC), *decls])
        self.raw.setdefault("setup_s", []).append(full)
        self.samples.setdefault("setup_s", []).append(full * BARE_START_REF_S / bare)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Running and reporting


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _row(name: str, value: float, unit: str) -> None:
    print(f"  {name:<40} {value:>14.6f} {unit}")


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    refdir: Path = REFERENCE,
    work: Path = OUT,
) -> dict:
    """Run one workload and return the result object the last line prints."""
    os.environ.pop("NESTFOLD_AGDA", None)  # the external checker is not measured
    r = Run(workload, seed, refdir, work)
    try:
        result = _traced(r, seconds) if trace else _untraced(r, seconds)
    finally:
        r.close()
    _report_work(r)
    ratio = r.failed / r.attempted
    print(f"  {'fail_ratio':<40} {ratio:>14.6f} ratio ({r.failed} of {r.attempted} operations)")
    return {"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": result}


def _until(seconds: float, at_least: int = 1):
    """Cycle numbers until `seconds` have passed; a started cycle finishes."""
    end = time.perf_counter() + seconds
    n = 0
    while n < at_least or time.perf_counter() < end:
        yield n
        n += 1


def _untraced(r: Run, seconds: float) -> dict:
    counter = EnumerationCounter()
    counter.install()
    scales = []
    try:
        for _ in _until(seconds):
            scales.append(r.cycle())
    finally:
        counter.uninstall()
    r.values_enumerated = counter.values // len(scales)
    metrics = {
        "setup_s": (_median(r.samples["setup_s"]), "s"),
        "suite_s": (_median(r.samples["suite_s"]), "s"),
        "suite_cpu_s": (_median(r.samples["suite_cpu_s"]), "s"),
        "derive_s": (_median(r.samples["derive_s"]), "s"),
        "eval_s": (_median(r.samples["eval_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(
        f"{r.workload.name}: seed {r.seed}, {len(scales)} cycles, untraced; medians "
        f"rescaled to the reference speed (the host ran {1 / _median(scales):.3f} times slower)"
    )
    for name, (value, unit) in metrics.items():
        raw = f"   (as measured {_median(r.raw[name]):.6f})" if name in r.raw else ""
        _row(name, value, unit + raw)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


#: Per-layer metrics, in the order BENCHMARK.json lists them.
PROPERTIES = (
    "nfold-vs-nfold-prime",
    "map-identity",
    "map-composition",
    "hfold-conformance",
    "hfold-leaf-equation",
    "hmap-agreement",
    "hmap-cons-equation",
    "ind-agreement",
    "spine-fold-agreement",
    "call-counter-bound",
)
LAYER_TIMES = (
    "runtime.eval_nfold",
    "runtime.eval_map",
    "runtime.eval_ind",
    "runtime.eval_nfold_prime",
    "runtime.eval_hfold_via_nfold",
    "runtime.eval_hfold_direct",
    "runtime.eval_hmap_direct",
    "runtime.enumerate_values",
    "runtime.typecheck_value",
    "analysis.analyze",
    "analysis.well_formed",
    "analysis.enumerate_indices",
    "parser.parse_program",
    "parser.parse_value_literal",
    "parser.render_value",
    "properties.run_suite",
    *(f"properties.{p}" for p in PROPERTIES),
    "derivation.derive_group",
    "emitter.emit_agda",
)
LAYER_CALLS = (
    "runtime.eval_nfold",
    "runtime.eval_map",
    "runtime.eval_ind",
    "runtime.eval_nfold_prime",
    "runtime.check_algebra",
    "runtime.enumerate_values",
    "analysis.subst_index",
    "parser.render_value",
    "parser.value_size",
)
LAYER_COUNTS = (
    "runtime.values_enumerated",
    *(f"properties.{p}_cases" for p in PROPERTIES),
    "derivation.defs",
    "emitter.bytes",
)


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    out = {f"{n}_s": "s" for n in LAYER_TIMES}
    out["cli.output_s"] = "s"
    out.update({f"{n}_calls": "count" for n in LAYER_CALLS})
    out.update({n: "count" for n in LAYER_COUNTS})
    out["runtime.enumerate_reuse_ratio"] = "ratio"
    out["trace.suite_overhead_s"] = "s"
    return out


def _traced(r: Run, seconds: float) -> dict:
    """Alternate untraced and traced cycles; report per traced cycle."""
    tracer = Tracer()
    untraced_suite, traced_suite, scales = [], [], []
    for n in _until(seconds, at_least=2):
        if n % 2 == 0:
            r.cycle()
            untraced_suite.append(r.samples["suite_s"][-1])
            continue
        tracer.install()
        try:
            scales.append(r.cycle(tracer))
        finally:
            tracer.uninstall()
        traced_suite.append(r.samples["suite_s"][-1])
    k = len(traced_suite) or 1
    scale = _median(scales) or 1.0
    self_s = {name: s * scale for name, s in tracer.self_s.items()}
    metrics = {f"{n}_s": self_s.get(n, 0.0) / k for n in LAYER_TIMES}
    metrics["cli.output_s"] = self_s.get("cli.main", 0.0) / k
    metrics.update({f"{n}_calls": tracer.calls[n] / k for n in LAYER_CALLS})
    metrics.update({n: tracer.counts[n] / k for n in LAYER_COUNTS})
    # Every cycle makes the same requests, so the distinct ones are one cycle's.
    calls = tracer.calls["runtime.enumerate_values"] / k
    metrics["runtime.enumerate_reuse_ratio"] = len(tracer.requests) / calls if calls else 0.0
    metrics["trace.suite_overhead_s"] = (
        _median(traced_suite) - _median(untraced_suite) if traced_suite else 0.0
    )
    total = sum(self_s.values())
    print(
        f"{r.workload.name}: seed {r.seed}, {len(traced_suite)} traced and "
        f"{len(untraced_suite)} untraced cycles; per traced cycle, rescaled "
        "to the reference speed:"
    )
    print(f"  {'layer':<40} {'self s':>10} {'calls':>10} {'share':>7}")
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = s / total if total else 0.0
        print(f"  {name:<40} {s / k:>10.4f} {tracer.calls[name] / k:>10.0f} {share:>7.1%}")
    for name in ("runtime.check_algebra", "analysis.subst_index", "parser.value_size"):
        print(f"  {name:<40} {'':>10} {tracer.calls[name] / k:>10.0f}")
    print(f"  trace overhead: traced suite_s minus untraced suite_s = {metrics['trace.suite_overhead_s']:.4f} s")
    spans = r.work / f"spans-{r.tag}.tsv.gz"
    tracer.write(spans)
    print(f"  {tracer.spans} spans written to {os.path.relpath(spans)}")
    unit = per_layer_metrics()
    return {n: {"value": metrics[n], "unit": u} for n, u in unit.items()}


def _report_work(r: Run) -> None:
    total = sum(r.cases.values())
    print(f"  work per cycle: {total} suite cases, {len(r.values)} values of "
          f"{sum(v.nodes for v in r.values)} nodes evaluated")
    for name, n in r.cases.items():
        print(f"    {name}: {n} cases")
    if r.values_enumerated is not None:
        print(f"    values enumerated: {r.values_enumerated}")

