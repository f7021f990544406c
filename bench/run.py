#!/usr/bin/env python3
"""Seeded benchmark of the sexticfield pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload case_sweep --seed 1 --seconds 15 --trace 0

Every field goes through the user path: the in-process
`sexticfield.cli.run([... "--json"])` with stdout captured, one caller on
one thread, the next field starting when the previous one returns (a
closed loop).  Inputs come from the committed pools under `bench/corpus`
(see `make_corpus.py`); the seed picks a stratified sample of each pool,
so the same seed gives the same fields on every commit and nothing here
calls into the package to build them.

With `--trace 0` the run makes a fixed number of passes, set by
`--seconds`, and reports the end-to-end metrics; with `--trace 1` it
reports the per-layer metrics from spans recorded around the module
attributes the pipeline calls.  Every time it reports is calibrated to
a fixed host speed: a reference kernel timed around (and during) each
field or fresh interpreter gives the host's speed at that moment, and
the measured time is scaled by REF_S over that kernel time.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without `src/sexticfield` next to this directory
the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

FACTOR_BUDGET = 10_000
BIG = 10 ** 36  # from here on normalize scans every prime up to 10^6

# verify mode, factor budget (None: the CLI default) and the nominal
# seconds of a pass, near the time of the first pass when the benchmark
# was added (on large_coeffs it holds the fields from BIG up, which run
# only then); why each workload exists is in BENCHMARK.json and
# bench/README.md
WORKLOADS = {
    "small_full": ("full", None, 4.5),
    "case_sweep": ("basic", FACTOR_BUDGET, 5.0),
    "large_coeffs": ("basic", FACTOR_BUDGET, 40.0),
}

# The host is a shared VM whose speed swings by up to a third, both from
# one moment to the next and over stretches longer than a run, so raw
# times of the same code differ from run to run by more than any bound.
# The reference kernel below is timed (fastest of REF_REPEATS) between
# consecutive fields and, in untraced passes, once every TICK_S while a
# field runs, from a SIGALRM handler whose time is taken off the field's.
# A field's time is scaled by REF_S over the mean of the kernel times
# around and during it.  REF_S is the kernel's time on a 2.1 GHz Xeon at
# full speed, so calibrated times read as times on that host.  The
# kernel is the benchmark's own code and no commit changes it.
REF_S = 0.75e-3
REF_REPEATS = 3
TICK_S = 0.1

# every case_sweep run covers all 87 rows of the case tables
CASE_LABELS = frozenset(
    [f"E{i}" for i in range(1, 27)] + [f"F{i}" for i in range(1, 28)]
    + [f"G{i}" for i in range(1, 23)] + [f"H{i}" for i in range(1, 13)]
)

# Run untimed before every pass.  None of them is in any pool, so the
# is_prime cache never holds a timed input; between passes it is cleared.
WARMUP = ((13, 1), (-1, 13), (2, -13), (0, 15))

# A worked example of the README; a fresh interpreter answering it is setup_s.
SETUP_ARGS = ["--a", "0", "--b", "12", "--json"]
SETUP_D_K = str(-(2 ** 4) * 3 ** 11)
SETUP_RUNS = 16  # at least this many fresh interpreters time setup_s

# name, module, attribute: the calls the traced run wraps
WRAPPED = (
    ("normalize", "cli", "normalize"),
    ("irreducibility", "cli", "irreducibility_check"),
    ("factor", "sextic", "factor"),
    ("factor", "basis", "factor"),
    ("classify", "basis", "p_integral_basis"),
    ("combine", "basis", "combine"),
    ("verify.basic", "cli", "is_integral"),
    ("verify.lattice", "cli", "lattice_index"),
    ("verify.maximality", "cli", "maximality_test"),
    ("verify.dedekind", "cli", "dedekind_maximal_at_p"),
)
ORDER_LAYER = "verify.order"  # cli.OrderPresentation.from_triangular
FULL_ONLY = {"verify.lattice", "verify.order", "verify.maximality", "verify.dedekind"}
OUTSIDE_MAX = 0.05  # largest share of the traced wall time no span may cover
LAYERS = (
    "cli", "normalize", "irreducibility", "factor", "classify", "combine",
    "verify.basic", "verify.lattice", "verify.order", "verify.maximality",
    "verify.dedekind",
)


# ---------------------------------------------------------------------------
# corpus


def load_pool(workload):
    with open(BENCH / "corpus" / f"{workload}.json") as fh:
        return json.load(fh)


def corpus(workload, seed):
    """The fields of one run: `quota[s]` entries drawn from each stratum s.

    A stratum's entries, ordered by the time they took when the pool was
    built, fall into `quota[s]` runs of adjacent time, and one entry is
    drawn from each run; so every seed draws the same spread of costs.
    """
    pool = load_pool(workload)
    rng = random.Random(f"{workload}:{seed}")
    by_stratum = {}
    for entry in pool["entries"]:
        by_stratum.setdefault(entry["stratum"], []).append(entry)
    picked = []
    for stratum in sorted(pool["quota"]):
        entries = sorted(by_stratum[stratum], key=lambda entry: entry["ms"])
        quota = pool["quota"][stratum]
        for k in range(quota):
            picked.append(rng.choice(
                entries[k * len(entries) // quota:(k + 1) * len(entries) // quota]))
    rng.shuffle(picked)
    if workload == "case_sweep":
        missing = CASE_LABELS - {entry.get("label") for entry in picked}
        if missing:
            raise RuntimeError(f"case_sweep lacks cases {sorted(missing)}")
    return picked


def is_big(entry):
    return max(abs(int(entry["a"])), abs(int(entry["b"]))) >= BIG


def field_argv(workload, entry):
    """CLI arguments for one pool entry under its workload's flags."""
    verify, budget, _ = WORKLOADS[workload]
    argv = ["--a", entry["a"], "--b", entry["b"], "--json", "--verify", verify]
    if budget is not None:
        argv += ["--factor-budget", str(budget)]
    return argv


# ---------------------------------------------------------------------------
# host-speed calibration


_REF_MODULUS = 10 ** 39 + 7


def _reference_kernel():
    s, x = 0, 3 ** 200
    for i in range(3000):
        s += i * i % 7
        x = x * x % _REF_MODULUS
    return s + x


def host_ref():
    """Seconds of the reference kernel now: the fastest of REF_REPEATS."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(seconds, refs):
    """`seconds` measured while the kernel took `refs`, at the speed REF_S."""
    return seconds * REF_S / statistics.fmean(refs)


class Ticker:
    """Times the reference kernel every TICK_S while a field runs."""

    def __init__(self):
        self.refs = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _reference_kernel()
        self.refs.append(time.perf_counter() - start)

    def __enter__(self):
        self.refs = []
        self.saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.saved)


# ---------------------------------------------------------------------------
# running and checking one field


def call_cli(cli, argv):
    """(seconds, exit code or None, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        error = None
    except Exception as exc:  # one field's traceback must not end the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    # exit 1 with a report is a failed verification, which check() flags;
    # exit 1 without one is an internal error
    if error is None and code not in (0, 2) and not (code == 1 and out.getvalue()):
        error = f"exit {code}: {err.getvalue().strip()}"
    return seconds, code, out.getvalue(), error


def summarize(code, text):
    """The parts of a report that the reference records."""
    report = json.loads(text)
    disc = report["discriminant"] or {}
    dk = report["field_discriminant"] or {}
    ver = report["verification"] or {}
    irr = report["irreducibility"] or {}
    return {
        "code": code,
        "status": irr.get("status"),
        "complete": code == 0 and "unfactored_cofactor" not in disc,
        "D": disc.get("value"),
        "index": report["index"],
        "d_K": dk.get("d_K"),
        "cases": [[e["prime"], e["case"]] for e in report["primes"] or ()],
        "all_passed": ver.get("all_passed"),
    }


def check(entry, got):
    """Reasons this answer is wrong; empty when every check holds."""
    bad = []
    ref = entry.get("ref") or {}
    if got["code"] != 2:
        if not got["all_passed"]:
            bad.append("verification failed")
        if int(got["D"]) != int(got["index"]) ** 2 * int(got["d_K"]):
            bad.append("D != index^2 * d_K")
    if "label" in entry:
        p, label = str(entry["p"]), entry["label"]
        cases = dict(got["cases"])
        if p in cases:
            if cases[p] != label:
                bad.append(f"case at {p} is {cases[p]}, steered {label}")
        # only the trivial rows E1, F1, G1 and H1 allow p to miss D
        elif got["code"] == 0 and (label[1:] != "1" or int(got["D"]) % int(p) == 0):
            bad.append(f"steered prime {p} ({label}) missing from the report")
    decided = ("irreducible", "reducible")
    if ref.get("status") in decided and got["status"] in decided:
        if ref["status"] != got["status"]:
            bad.append(f"irreducibility {got['status']}, reference {ref['status']}")
    if ref.get("complete") and got["complete"]:
        for key in ("index", "d_K", "cases"):
            if got[key] != ref[key]:
                bad.append(f"{key} differs from the reference")
    return bad


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans [layer, start, end, parent, field, result] around wrapped calls."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.field = None

    def span(self, layer, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = [layer, time.perf_counter(), None, parent, self.field, None]
        self.spans.append(record)
        self.stack.append(index)
        try:
            record[5] = fn(*args, **kwargs)
            return record[5]
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrapper(self, layer, fn):
        def traced(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        return traced


class _OrderProxy:
    """Stands in for cli.OrderPresentation; times from_triangular."""

    def __init__(self, tracer, cls):
        self._cls = cls
        self.from_triangular = tracer.wrapper(ORDER_LAYER, cls.from_triangular)

    def __getattr__(self, name):
        return getattr(self._cls, name)


@contextlib.contextmanager
def traced_pipeline(modules, tracer):
    """Wrap every name in WRAPPED; a missing name fails the run."""
    saved = []
    try:
        for layer, mod, attr in WRAPPED:
            module = modules[mod]
            original = getattr(module, attr)  # AttributeError: fail loudly
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrapper(layer, original))
        cli = modules["cli"]
        saved.append((cli, "OrderPresentation", cli.OrderPresentation))
        cli.OrderPresentation = _OrderProxy(tracer, cli.OrderPresentation)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer, fields, wall, expected):
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent is not None:
            pstart, pend = spans[parent][1], spans[parent][2]
            if start < pstart or end > pend:
                raise RuntimeError(f"span {layer} is not nested in its parent")
            child_time[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (layer, start, end, _, _, _) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += end - start - child_time[i]
    # the benchmark's own work between fields (parsing and checking the
    # reports) is all that the spans may leave out
    outside = 1 - sum(self_s.values()) / wall
    if not 0 <= outside <= OUTSIDE_MAX:
        raise RuntimeError(
            f"layer self times cover {1 - outside:.1%} of the traced wall time")
    silent = [layer for layer in expected if calls[layer] == 0]
    if silent:
        raise RuntimeError(f"wrapped layers never called: {', '.join(silent)}")

    big_wall = big_normalize = 0.0
    for i, (layer, start, end, parent, field, _) in enumerate(spans):
        if is_big(fields[field]):
            if parent is None:
                big_wall += end - start
            elif layer == "normalize":
                big_normalize += end - start - child_time[i]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.share"] = (self_s[layer] / wall, "ratio")

    b_calls = d_calls = incomplete = bits_max = 0
    steps = scan_hits = exhaustive = 0
    for layer, _, _, parent, _, result in spans:
        parent_layer = spans[parent][0] if parent is not None else None
        if layer == "factor":
            if parent_layer == "irreducibility":
                b_calls += 1
            else:
                d_calls += 1
            if result is not None and not result.complete:
                incomplete += 1
                bits_max = max(bits_max, abs(result.cofactor).bit_length())
        elif layer == "normalize" and result is not None:
            steps += sum(e for _, e in result.normalization)
            scan_hits += bool(getattr(result, "scan_limit_hit", False))
        elif layer == "irreducibility" and result is not None:
            method = result.method
            if "exhaustive" in method or "degree-" in method:
                exhaustive += 1
    metrics.update({
        "factor.calls_per_field": ((b_calls + d_calls) / len(fields), "count"),
        "factor.b_calls": (b_calls, "count"),
        "factor.D_calls": (d_calls, "count"),
        "factor.incomplete": (incomplete, "count"),
        "factor.cofactor_bits_max": (bits_max, "bits"),
        "normalize.scan_limit_hit": (scan_hits, "count"),
        "normalize.steps": (steps, "count"),
        "irreducibility.exhaustive": (exhaustive, "count"),
        "classify.primes_per_field": (calls["classify"] / len(fields), "count"),
        "normalize.big_share": (big_normalize / big_wall if big_wall else 0.0, "ratio"),
        "trace.outside_share": (outside, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# passes


def warm_up(cli, exact, workload):
    clear = getattr(exact.is_prime, "cache_clear", None)
    if clear is not None:
        clear()
    for a, b in WARMUP:
        call_cli(cli, field_argv(workload, {"a": str(a), "b": str(b)}))


def run_pass(cli, workload, fields, tracer=None):
    """Calibrated per-field seconds, (kind, detail, summary) outcomes, and
    the seconds spent timing the reference kernel between fields, of one
    pass.  A traced pass takes no kernel timings while a field runs, so
    that the spans hold only the pipeline."""
    times, outcomes = [], []
    ref_start = time.perf_counter()
    ref = host_ref()
    ref_seconds = time.perf_counter() - ref_start
    ticker = Ticker()
    for i, entry in enumerate(fields):
        argv = field_argv(workload, entry)
        if tracer is None:
            with ticker:
                seconds, code, text, error = call_cli(cli, argv)
            seconds -= sum(ticker.refs)
        else:
            tracer.field = i
            seconds, code, text, error = tracer.span("cli", call_cli, cli, argv)
        ref_start = time.perf_counter()
        ref_after = host_ref()
        ref_seconds += time.perf_counter() - ref_start
        refs = [ref, ref_after] + ticker.refs
        times.append(calibrated(seconds, refs))
        ref = ref_after
        if error is not None:
            outcomes.append(("error", error, None))
            continue
        got = summarize(code, text)
        bad = check(entry, got)
        outcomes.append(("wrong", "; ".join(bad), got) if bad else ("ok", "", got))
    return times, outcomes, ref_seconds


def setup_times(argv_tail, repeats):
    """Calibrated wall seconds of `repeats` fresh interpreters, and the
    last one's stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    ref = host_ref()
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable] + argv_tail, cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        seconds = time.perf_counter() - start
        ref_after = host_ref()
        times.append(calibrated(seconds, [ref, ref_after]))
        ref = ref_after
        if done.returncode != 0:
            raise RuntimeError(f"setup child failed: {done.stderr.strip()}")
    return times, done.stdout


def measure_setup(repeats):
    code = "from sexticfield.cli import main; main()"
    times, out = setup_times(["-c", code] + SETUP_ARGS, repeats)
    if json.loads(out)["field_discriminant"]["d_K"] != SETUP_D_K:
        raise RuntimeError("setup child gave a wrong d_K for (0, 12)")
    return times


def timed_passes(cli, exact, workload, fields, passes):
    """Each field's median calibrated time over `passes` passes, and every
    outcome.

    The fields from BIG up run in the first pass only: each runs for
    seconds, too long to repeat within a run.
    Fresh interpreters for setup_s run in equal batches before the first
    pass and after each.
    """
    batch = -(-SETUP_RUNS // (passes + 1))
    setup = measure_setup(batch)
    samples = [[] for _ in fields]
    todo = list(range(len(fields)))
    outcomes = []
    for k in range(passes):
        warm_up(cli, exact, workload)
        times, pass_outcomes, _ = run_pass(
            cli, workload, [fields[i] for i in todo])
        for i, seconds in zip(todo, times):
            samples[i].append(seconds)
        if not k:
            first = pass_outcomes
            todo = [i for i in todo if not is_big(fields[i])]
        outcomes += pass_outcomes
        setup += measure_setup(batch)
    return [statistics.median(s) for s in samples], first, outcomes, setup


def traced_run(cli, exact, modules, workload, fields):
    """Per-layer metrics and outcomes of one traced pass over every field.

    trace.overhead compares the calibrated traced and untraced times of
    the fields below BIG over the passes traced, untraced, untraced,
    traced, so that neither side gains from running later.  The traced
    wall time leaves out the time spent timing the reference kernel.
    """
    verify = WORKLOADS[workload][0]
    expected = [layer for layer in LAYERS if verify == "full" or layer not in FULL_ONLY]
    python_s = statistics.median(setup_times(["-c", "pass"], SETUP_RUNS)[0])
    small = [i for i, entry in enumerate(fields) if not is_big(entry)]
    total = {True: 0.0, False: 0.0}
    outcomes = []
    for k, traced in enumerate((True, False, False, True)):
        run_fields = fields if not k else [fields[i] for i in small]
        warm_up(cli, exact, workload)
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        with traced_pipeline(modules, tracer) if traced else contextlib.nullcontext():
            times, pass_outcomes, ref_seconds = run_pass(
                cli, workload, run_fields, tracer)
        wall = time.perf_counter() - start - ref_seconds
        if not k:
            metrics = layer_metrics(tracer, fields, wall, expected)
            times = [times[i] for i in small]
        total[traced] += sum(times)
        outcomes += pass_outcomes
    metrics["trace.overhead"] = (total[True] / total[False] - 1, "ratio")
    metrics["setup.python_s"] = (python_s, "s")
    return metrics, outcomes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sexticfield" / "__init__.py").is_file():
        print(f"bench: no sexticfield package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sexticfield import basis, cli, exact, sextic

    modules = {"cli": cli, "basis": basis, "sextic": sextic}
    fields = corpus(args.workload, args.seed)

    if args.trace:
        metrics, outcomes = traced_run(cli, exact, modules, args.workload, fields)
    else:
        # the pass count follows from --seconds and a fixed nominal pass
        # time, never from the time a pass took, so every commit makes the
        # same number of passes
        passes = max(1, round(args.seconds / WORKLOADS[args.workload][2]))
        latency, first, outcomes, setup = timed_passes(
            cli, exact, args.workload, fields, passes)
        reported = [got for _, _, got in first if got is not None]
        metrics = {
            "fields_per_s": (len(fields) / sum(latency), "1/s"),
            "field_ms_p50": (1e3 * statistics.median(latency), "ms"),
            "field_ms_p90": (
                1e3 * statistics.quantiles(latency, n=10, method="inclusive")[8],
                "ms"),
            "complete_share": (
                sum(got["complete"] or got["code"] == 2 for got in reported)
                / len(fields), "share"),
            "decided_share": (
                sum(got["status"] != "unknown" for got in reported) / len(fields),
                "share"),
            "passed_share": (
                sum(kind == "ok" for kind, _, _ in first) / len(fields), "share"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    failures = {}
    for kind, detail, _ in outcomes:
        if kind != "ok":
            failures[(kind, detail)] = failures.get((kind, detail), 0) + 1
    for (kind, detail), n in sorted(failures.items()):
        print(f"{kind} x{n}: {detail}", file=sys.stderr)
    result = {
        "correct": not any(kind == "wrong" for kind, _ in failures),
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
