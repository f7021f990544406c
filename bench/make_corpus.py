#!/usr/bin/env python3
"""Build the input pools under bench/corpus and their reference answers.

Usage, from the repository root:

    python3 bench/make_corpus.py

Run once when the pools are defined; the benchmark then samples the
committed files and never rebuilds them, so every commit sees the same
inputs.  This script, unlike the benchmark, calls into the package: it
steers the case_sweep instances with tests/casegen.instance and records
each entry's answer and calibrated time ("ms", see run.py) at the current
commit as its reference.

Every pool entry carries a stratum, "<class>:<outcome>", where outcome
is the reference result under the workload's flags (complete,
incomplete, unknown irreducibility, reducible or error).  Each run draws
a fixed quota from every stratum, spread over the stratum's range of
times, so a seed changes which fields run but not how many of each kind,
and neither the proof-strength shares nor the latencies swing much with
the seed.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))
sys.path.insert(0, str(bench.ROOT / "tests"))

from casegen import all_labels, instance  # noqa: E402
from sexticfield import cli  # noqa: E402
from sexticfield.exact import is_prime  # noqa: E402

POOL_SEED = 6
TIMINGS = 3  # a field's ms orders its stratum, so it is timed more than once

SMALL_BOX = 12
SMALL_SIZE = 100

CASE_POOL_PER_LABEL = 6
CASE_SPARE_PER_LABEL = 2  # of the 6, these form one pool of spare instances
CASE_SPARES = 13  # drawn from the spare pool, so a run has 100 fields

# class: (pool size, run quota); magnitude 10^e for e in the name
LARGE_CLASSES = {
    "e13": (150, 63),
    "e24": (150, 25),
    "e48": (10, 4),
    "e48n": (10, 4),  # p^5 | a and p^6 | b for a prime p above 10^6
    "e96": (10, 3),
    "e60": (1, 1),    # (10^60 + 1, 10^61 + 3): OverflowError in exact._perfect_power
}


def reference(workload, entry):
    """The entry's answer, its outcome and its calibrated time in
    milliseconds: the median of TIMINGS runs, or one run from bench.BIG up."""
    argv = bench.field_argv(workload, entry)
    times = []
    for _ in range(1 if bench.is_big(entry) else TIMINGS):
        is_prime.cache_clear()
        ref = bench.host_ref()
        with bench.Ticker() as ticker:
            seconds, code, text, error = bench.call_cli(cli, argv)
        refs = [ref, bench.host_ref()] + ticker.refs
        times.append(bench.calibrated(seconds - sum(ticker.refs), refs))
    ms = round(1e3 * statistics.median(times), 1)
    if error is not None:
        return {"error": error.split(":")[0]}, "error", ms
    got = bench.summarize(code, text)
    del got["all_passed"], got["D"]
    if code == 2:
        return got, "reducible", ms
    if got["status"] == "unknown":
        return got, "unknown", ms
    return got, "complete" if got["complete"] else "incomplete", ms


def apportion(counts, n):
    """Split n over the keys of counts in proportion, largest remainder
    first; where n covers every key, a key left empty takes one from the
    largest share, so that rare outcomes (an unknown irreducibility) run."""
    total = sum(counts.values())
    exact = {k: n * c / total for k, c in counts.items()}
    quota = {k: int(v) for k, v in exact.items()}
    rest = sorted(counts, key=lambda k: (quota[k] - exact[k], k))
    for k in rest[: n - sum(quota.values())]:
        quota[k] += 1
    if n >= len(counts):
        for k in sorted(counts):
            if not quota[k]:
                quota[max(quota, key=quota.get)] -= 1
                quota[k] = 1
    return {k: q for k, q in quota.items() if q}


def finish(workload, entries, class_quota):
    """Attach references and strata, then the per-stratum quotas."""
    seen = {(str(a), str(b)) for a, b in bench.WARMUP}
    by_class = {}
    for entry in entries:
        key = (entry["a"], entry["b"])
        if key in seen:
            raise SystemExit(f"duplicate or warm-up pair in {workload}: {key}")
        seen.add(key)
        entry["ref"], outcome, entry["ms"] = reference(workload, entry)
        entry["stratum"] = f"{entry.pop('cls')}:{outcome}"
        cls = entry["stratum"].split(":")[0]
        strata = by_class.setdefault(cls, {})
        strata[entry["stratum"]] = strata.get(entry["stratum"], 0) + 1
    quota = {}
    for cls, strata in sorted(by_class.items()):
        quota.update(apportion(strata, class_quota[cls]))
    path = bench.BENCH / "corpus" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"quota": quota, "entries": entries}, fh, indent=0)
        fh.write("\n")
    print(f"{workload}: {len(entries)} entries, {sum(quota.values())} per run, "
          f"strata {quota}")


def small_full():
    entries = [
        {"a": str(a), "b": str(b), "cls": "box"}
        for a in range(-SMALL_BOX, SMALL_BOX + 1)
        for b in range(-SMALL_BOX, SMALL_BOX + 1)
        if b
    ]
    finish("small_full", entries, {"box": SMALL_SIZE})


def case_sweep():
    rng = random.Random(POOL_SEED)
    entries = []
    for label in all_labels():
        for i in range(CASE_POOL_PER_LABEL):
            p, field = instance(label, rng)
            a, b = field.original
            cls = "spare" if i < CASE_SPARE_PER_LABEL else label
            entries.append({"a": str(a), "b": str(b), "cls": cls,
                            "p": p, "label": label})
    quota = dict.fromkeys(all_labels(), 1)
    quota["spare"] = CASE_SPARES
    finish("case_sweep", entries, quota)


def _magnitude(rng, e):
    return rng.choice((1, -1)) * rng.randrange(10 ** (e - 1), 10 ** e)


def _prime_above(rng, low):
    while True:
        p = rng.randrange(low, 2 * low) | 1
        if is_prime(p):
            return p


def large_coeffs():
    rng = random.Random(POOL_SEED)
    entries = []
    for cls, (size, _) in LARGE_CLASSES.items():
        for _ in range(size):
            if cls == "e48n":
                p = _prime_above(rng, 10 ** 6)
                a = p ** 5 * _magnitude(rng, 48 - 31)
                b = p ** 6 * _magnitude(rng, 48 - 37)
            elif cls == "e60":
                a, b = 10 ** 60 + 1, 10 ** 61 + 3
            else:
                e = int(cls[1:])
                a, b = _magnitude(rng, e), _magnitude(rng, e)
            entries.append({"a": str(a), "b": str(b), "cls": cls})
    quota = {cls: q for cls, (_, q) in LARGE_CLASSES.items()}
    finish("large_coeffs", entries, quota)


if __name__ == "__main__":
    chosen = sys.argv[1:] or ["small_full", "case_sweep", "large_coeffs"]
    for name in chosen:
        globals()[name]()
