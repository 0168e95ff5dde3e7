"""vizscene benchmark: one workload, one seed, one run.

    python3 vizbench/run.py --workload gallery --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports vizscene from its
src/. Set-up runs three times and the median is reported. Then whole rounds
of the workload run until --seconds have passed and the workload's minimum
round count is reached. Every operation's output is checked outside the
timed region. With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 the run first measures untraced
rounds, then traced rounds, and reports the per-layer metrics and the
tracing overhead. Full results and spans go to vizbench/out/.

Exit codes: 0 when the run completed (failed operations are counted in
the result), 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
HARD_STOP_S = 150    # no new round starts after this, so a run ends within 180 s

# Which end-to-end metric each per-layer metric should move, recorded before
# any optimisation lands (see NOTES.md).
PREDICTIONS = [
    ("propagate.self_ms, layout.evaluate_layout.calls",
     "build_large: op_ms_*, marks_per_s; edit_session: edit_global_ms_p50",
     "about no change on gallery"),
    ("constraints.constraint_elements.*, constraints.useful_ratio, "
     "propagate.evaluated_per_pass",
     "edit_session: edit_local_ms_*", "small on build_large, none on gallery"),
    ("sceneio.serialize_scene.ms",
     "gallery: chart_ms_p50; edit_session: save_ms_p50", "none on build_large"),
    ("sceneio.deserialize_scene.ms, validate.validate_scene.ms",
     "edit_session: load_ms_p50", ""),
    ("svgrender.render.ms", "edit_session: save_ms_p50; gallery: chart_ms_*", ""),
    ("generate.*, encoding.apply_encoding.self_ms, data.import_*",
     "build_large: build_ms_*; gallery: chart_ms_*", "none on edit_session"),
    ("encoding.evaluate_encoding.ms",
     "edit_session: edit_global_ms_p50; build_large: build_ms_*", ""),
    ("pipeline.execute_pipeline.self_ms", "gallery: chart_ms_*", "only there"),
    ("memory-for-time caches", "edit_session: peak_rss_mb", ""),
]


def quantile(values, pct):
    """Linear interpolation between order statistics, pct in [0, 100]."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Results:
    """Per-operation latencies in flat arrays per kind, and per-round totals.

    peak_rss_mb is a gated metric, so the benchmark's own bookkeeping must
    stay small however many operations a faster program completes: about 8
    bytes per operation.
    """

    MAX_WRONG = 100

    def __init__(self):
        self.ms = {}             # kind -> array of latencies in ms
        self.round_ms = array("d")      # per round: operation time
        self.round_marks = array("d")   # per round: marks built or updated
        self.failures = Counter()  # (kind, exception or first problems) -> count
        self.wrong = {}          # distinct wrong-output problems, in order
        self.attempted = 0

    @property
    def failed(self):
        return sum(self.failures.values())

    def latencies(self, kinds=None):
        return [v for k, a in self.ms.items() if kinds is None or k in kinds for v in a]


def run_round(workload, vz, state, first, tracer, results):
    """One round of operations, recorded into `results`."""
    round_ms = 0.0
    round_marks = 0
    for kind, run, check in workload.ops(vz, state, first, tracer.call):
        tracer.op_id += 1
        error = out = None
        t0 = perf_counter()
        try:
            out = run()
        except Exception as e:   # a failing operation is a sample, not a crash
            error = f"{type(e).__name__}: {e}"
        ms = (perf_counter() - t0) * 1e3
        problems = []
        if error is None:
            active, tracer.active = tracer.active, False
            try:
                marks, problems = check(out)
                round_marks += marks
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
            tracer.active = active
        del out
        results.attempted += 1
        results.ms.setdefault(kind, array("d")).append(ms)
        round_ms += ms
        if error or problems:
            results.failures[(kind, error or "; ".join(problems[:3]))] += 1
        for p in problems:
            if len(results.wrong) < Results.MAX_WRONG:
                results.wrong[p] = None
    results.round_ms.append(round_ms)
    results.round_marks.append(round_marks)
    gc.collect()


def measure(workload, vz, state, tracer, results, until_s, min_rounds, start):
    """Whole rounds until `until_s` and `min_rounds` are both reached. The
    first round also checks the round-trip law."""
    first = True
    while ((first or len(results.round_ms) < min_rounds or perf_counter() - start < until_s)
           and perf_counter() - start < HARD_STOP_S):
        run_round(workload, vz, state, first, tracer, results)
        first = False


def throughput(results):
    """Median over rounds of marks per second of operation time."""
    return statistics.median(marks / (ms / 1e3)
                             for ms, marks in zip(results.round_ms, results.round_marks))


def end_to_end(workload, results, setup_times):
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # before any list
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_geomean": (geomean(statistics.median(a) for a in results.ms.values()), "ms"),
        "op_ms_tail": (quantile(results.latencies(), workload.tail_pct), "ms"),
        "marks_per_s": (throughput(results), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_op_share": (1 - results.failed / results.attempted, "ratio"),
    }


def named(workload, results):
    """The workload's own metric names, as listed in NOTES.md."""
    out = {}
    for name, kinds, pct in workload.named:
        ms = results.latencies(kinds)
        out[name] = {"value": quantile(ms, pct), "unit": "ms", "percentile": pct, "n": len(ms)}
    if workload.name == "build_large":
        out["build_marks_per_s"] = {"value": throughput(results), "unit": "1/s"}
    out["failed_op_share"] = {"value": results.failed / results.attempted,
                              "unit": "ratio", "n": results.attempted}
    return out


def per_layer(traced_metrics, plain, traced):
    """Times: median over traced rounds. Counts: the first traced round's,
    which every other traced round must repeat exactly."""
    out, problems = {}, []
    for name, unit, _ in tracing.PER_LAYER:
        values = [m[name] for m in traced_metrics if name in m]
        if not values:
            continue
        if name in tracing.TIMED:
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (values[0], unit)
            if any(v != values[0] for v in values):
                problems.append(f"counter {name} differs between rounds: {values}")
    round_ms = [statistics.median(r.round_ms) for r in (plain, traced)]
    out["trace.overhead_pct"] = ((round_ms[1] / round_ms[0] - 1) * 100, "%")
    return out, problems


def load_program():
    src = ROOT / "src"
    if not (src / "vizscene" / "__init__.py").is_file() or not (ROOT / "gallery").is_dir():
        return None
    sys.path.insert(0, str(src))
    import vizscene
    if Path(vizscene.__file__).resolve().parent != (src / "vizscene").resolve():
        return None
    return vizscene


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    vz = load_program()
    if vz is None:
        print(f"error: no vizscene source and gallery under {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = workload.setup(vz, ROOT, args.seed)
        setup_times.append(perf_counter() - t0)
    gc.collect()

    tracer = tracing.Tracer()
    results = Results()
    t0 = perf_counter()
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "python": sys.version.split()[0]}
    if args.trace:
        measure(workload, vz, state, tracer, results, args.seconds / 3, 1, t0)
        traced, traced_metrics = Results(), []
        tracer.install(vz)
        try:
            while ((len(traced.round_ms) < 2 or perf_counter() - t0 < args.seconds)
                   and perf_counter() - start < HARD_STOP_S):
                tracer.reset_round()
                tracer.active = True
                run_round(workload, vz, state, False, tracer, traced)
                tracer.active = False
                traced_metrics.append(tracing.round_metrics(tracer))
        finally:
            tracer.active = False
            tracer.uninstall()
        metrics, counter_problems = per_layer(traced_metrics, results, traced)
        report.update(plain_rounds=len(results.round_ms), traced_rounds=len(traced.round_ms),
                      counter_problems=counter_problems, spans=len(tracer.spans),
                      spans_dropped=tracer.dropped,
                      predictions=[{"layer": a, "moves": b, "prediction": c}
                                   for a, b, c in PREDICTIONS])
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
        for kind, ms in traced.ms.items():
            results.ms.setdefault(kind, array("d")).extend(ms)
        results.round_ms += traced.round_ms
        results.round_marks += traced.round_marks
        results.failures.update(traced.failures)
        results.wrong.update(traced.wrong)
        results.wrong.update(dict.fromkeys(counter_problems))
        results.attempted += traced.attempted
    else:
        measure(workload, vz, state, tracer, results, args.seconds, workload.min_rounds, t0)
        metrics = end_to_end(workload, results, setup_times)
        report["named"] = named(workload, results)
        report["tail_percentile"] = workload.tail_pct
    failures = [{"kind": k, "reason": r, "count": n}
                for (k, r), n in sorted(results.failures.items())]
    report.update(rounds=len(results.round_ms), ops=results.attempted, failures=failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(f"{workload.name}: {len(results.round_ms)} rounds, {results.attempted} ops, "
          f"seed {args.seed}")
    for name, d in report.get("named", {}).items():
        extra = f" (p{d['percentile']}, n={d['n']})" if "percentile" in d else ""
        print(f"  {name} = {d['value']:.6g} {d['unit']}{extra}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for f in failures:
        print(f"  FAILED {f['count']}x {f['kind']}: {f['reason']}")
    for p in list(results.wrong)[:10]:
        print(f"  WRONG {p}")
    if args.trace:
        for p in PREDICTIONS:
            print("  predict: " + " -> ".join(x for x in p if x))
    print(json.dumps({"correct": not results.wrong, "attempted": results.attempted,
                      "failed": results.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
