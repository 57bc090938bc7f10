"""Benchmark for so_lab: one workload per invocation.

    python3 perfbench/run.py --workload fagin --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run repeats whole rounds until --seconds have passed.  Each round
imports so_lab afresh from src/ (so no cache of the program survives
from one round to the next), does the workload's program-side set-up,
then times one pass over all its verdicts.  After the last round every
answer is checked against computations made apart from the program.

The last line of standard output is one JSON object: whether the
answers were correct, how many verdicts were attempted and failed, and
the metrics.  With --trace 0 these are the end-to-end metrics; with
--trace 1 the run alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, and writes the spans of one
traced round to perfbench/out/.  Times are scaled by a reference chunk
timed alongside them (see reference_chunk_s).  A summary, with the raw
times, goes to standard error.
"""
from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("errors", "formulas", "structures", "sat", "ultra", "formula_space",
           "types_omitting", "workbench")


def fresh_import():
    """Import so_lab from this checkout's src/, dropping any earlier copy
    so that its module-level caches start empty."""
    for name in [m for m in sys.modules if m == "so_lab" or m.startswith("so_lab.")]:
        del sys.modules[name]
    package = importlib.import_module("so_lab")
    if Path(package.__file__).resolve().parent != SRC / "so_lab":
        raise ImportError(f"so_lab was imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"so_lab.{name}") for name in MODULES})


# The reference chunk: a fixed piece of pure-Python work, timed before
# and after set-up and between stretches of the pass.  This machine's
# speed drifts by up to 1.6x over seconds and minutes while the CPU
# stays busy with this process, so every time is reported scaled to a
# machine on which one chunk takes NOMINAL_CHUNK_S, using the chunks
# timed on either side of it.
REFERENCE_ITERATIONS = 2000
NOMINAL_CHUNK_S = 0.001
SEGMENT_S = 0.04


def reference_chunk_s():
    start = time.perf_counter()
    acc, seen, table = 0, set(), {}
    for i in range(REFERENCE_ITERATIONS):
        t = (i & 63, i >> 6 & 7)
        if t in seen:
            acc += 1
        else:
            seen.add(t)
        table[i & 255] = acc + len(t)
    return time.perf_counter() - start


def settled_chunk_s():
    """The median of three chunks, taken around set-up, which is timed
    as one block."""
    return statistics.median(reference_chunk_s() for _ in range(3))


def scale(before, after):
    """Nominal seconds per measured second, between two chunks."""
    return 2 * NOMINAL_CHUNK_S / (before + after)


def run_round(workload, data, tracer=None):
    gc.collect()
    perf = time.perf_counter
    chunk_before = settled_chunk_s()
    start = perf()
    so = fresh_import()
    if tracer is not None:
        tracer.reset_counts()
        tracer.install()
        tracer.enabled = True
    prog = workload.setup(so, data)
    setup_raw = perf() - start
    if tracer is not None:
        tracer.enabled = False
    chunks = [settled_chunk_s()]
    setup_s = setup_raw * scale(chunk_before, chunks[0])
    ops = workload.operations(so, data, prog)
    if tracer is not None:
        tracer.enabled = True
    # The pass runs in segments of about SEGMENT_S with a reference
    # chunk after each; segment k lies between chunks[k] and chunks[k+1].
    raws, times, failures, segments = [], [], [], []
    budget_error = so.errors.BudgetExceededError
    segment_start = perf()
    for label, thunk in ops:
        t0 = perf()
        try:
            raw = thunk()
        except budget_error:
            raws.append(None)
            failures.append(label)
        except Exception:  # a crash fails this verdict, not the run
            raws.append(None)
            failures.append(label)
            traceback.print_exc(file=sys.stderr)
        else:
            times.append((label, perf() - t0, len(segments)))
            raws.append(raw)
        now = perf()
        if now - segment_start >= SEGMENT_S:
            segments.append(now - segment_start)
            chunks.append(reference_chunk_s())
            segment_start = perf()
    segments.append(perf() - segment_start)
    chunks.append(reference_chunk_s())
    scales = [scale(chunks[k], chunks[k + 1]) for k in range(len(segments))]
    by_label = {}
    for label, t, k in times:
        count, total = by_label.get(label, (0, 0.0))
        by_label[label] = (count + 1, total + t * scales[k])
    wall_raw = sum(segments)
    wall_s = sum(t * c for t, c in zip(segments, scales))
    layer = None
    if tracer is not None:
        tracer.enabled = False
        layer = tracer.round_metrics()
        round_scale = (setup_s + wall_s) / (setup_raw + wall_raw)
        for name in layer:
            if name.endswith(".self_s"):
                layer[name] *= round_scale
    answers = [None if raw is None else workload.answer(data, label, raw)
               for (label, _), raw in zip(ops, raws)]
    return {"so": so, "prog": prog, "setup_s": setup_s, "wall_s": wall_s,
            "setup_raw_s": setup_raw, "wall_raw_s": wall_raw,
            "total_s": setup_s + wall_s,
            "times": array.array("d", (t * scales[k] for _, t, k in times)),
            "by_label": by_label,
            "answers": answers, "failures": failures, "attempted": len(ops),
            "chunk_ms": 1000 * statistics.median(chunks), "layer": layer}


def measure(workload, data, seconds, trace):
    """Whole rounds until `seconds` have passed; with tracing, untraced
    and traced rounds alternate and each kind runs at least once."""
    tracer = tracing.Tracer() if trace else None
    rounds = []
    repeat_errors = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.round = len(rounds)
        rnd = run_round(workload, data, tracer if traced else None)
        rnd["traced"] = traced
        # Only the first round's answers are checked, against the
        # oracles; each later round must repeat them.  No round keeps
        # its program objects or answers past this point, so memory
        # does not grow with the number of rounds.
        if not rounds:
            answers = rnd["answers"]
            extras = workload.extras(rnd["so"], data, rnd["prog"])
        elif rnd["answers"] != answers:
            repeat_errors += 1
        del rnd["so"], rnd["prog"], rnd["answers"]
        rounds.append(rnd)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = rounds[0]
    errors = []
    if repeat_errors:
        errors.append(f"{repeat_errors} rounds gave other answers than the first")
    errors += workload.check(data, answers, extras)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)

    summary = {
        "workload": workload.name,
        "first_round_s_by_label": {label: [count, round(total, 4)]
                                   for label, (count, total) in first["by_label"].items()},
        "rounds": len(rounds),
        "verdicts_per_round": first["attempted"],
        "failed_per_round": [len(r["failures"]) for r in rounds],
        "failed_labels": sorted(set(first["failures"])),
        "reference_chunk_ms": statistics.median(r["chunk_ms"] for r in rounds),
        "raw_setup_s": statistics.median(r["setup_raw_s"] for r in rounds),
        "raw_wall_s": statistics.median(r["wall_raw_s"] for r in rounds),
        "per_round": [[round(r["chunk_ms"], 3), round(r["setup_s"], 4), round(r["wall_s"], 4),
                       round(r["wall_raw_s"], 4)] for r in rounds],
        "errors": errors[:10],
    }
    if trace:
        metrics = trace_metrics(rounds)
        summary["overhead_share"] = (
            metrics["trace.overhead_s"]["value"]
            / statistics.median(r["total_s"] for r in rounds if not r["traced"]))
        # Every traced round gives the same spans, up to timing; one is
        # written, which keeps the file to a few megabytes.
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{data['seed']}.tsv"
        tracer.write(path, round_number=1)
        summary["spans"] = len(tracer.spans)
        summary["span_file"] = str(path.relative_to(ROOT))
    else:
        times = [t for r in rounds for t in r["times"]]
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "verdict_p50_ms": (1000 * statistics.median(times), "ms"),
            "verdict_p90_ms": (1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
                               "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        summary["verdicts_timed"] = len(times)
    print(json.dumps(summary), file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace_metrics(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    first = traced[0]["layer"]
    out = {}
    for name in first:
        if name.endswith(".self_s"):
            value = statistics.median(r["layer"][name] for r in traced)
        else:
            value = first[name]
        out[name] = {"value": value, "unit": units[name]}
    overhead = (statistics.median(r["total_s"] for r in traced)
                - statistics.median(r["total_s"] for r in plain))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def smoke():
    """Every workload at tiny size, one untraced and one traced round."""
    ok = True
    for workload in WORKLOADS.values():
        data = workload.inputs(1, tiny=True)
        data["seed"] = "smoke"
        result = measure(workload, data, 0, trace=True)
        print(json.dumps({"workload": workload.name, **result}))
        ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check it")
    args = parser.parse_args(argv)
    if not (SRC / "so_lab" / "__init__.py").is_file():
        print(f"no so_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    data = workload.inputs(args.seed)
    data["seed"] = args.seed
    result = measure(workload, data, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
