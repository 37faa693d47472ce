"""mirrorcalc benchmark.

    python3 perfbench/run.py --workload {pipeline,verify,cli} --seed N \
        --seconds S --trace {0,1}

The program is imported from the ``src`` directory next to this one.
Items run one at a time in one process (closed loop); the cli workload
starts one child process at a time.  Every output is checked against
``references.json``.  Times are in reference seconds (see
calibration.py); raw pass seconds are printed beside them.

--trace 0 times set-up (median of SETUP_REPEATS fresh interpreters) and
passes over the workload for about S seconds (at least MIN_PASSES), and
prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs one
untraced pass and one pass with spans around the public functions of
each layer, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when a
result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 2

SETUP_CODE = ("import sys, time\n"
              "sys.path.insert(0, {bench!r})\n"
              "import workloads\n"
              "t0 = time.perf_counter()\n"
              "workloads.build({name!r})\n"
              "print(time.perf_counter() - t0)\n")

CLI_KINDS = ("compute_miss", "compute_hit", "verify", "list_critical")
COUNT_METRICS = ("pipeline.cells", "pipeline.max_coeff_bits", "eulerdata.results",
                 "eulerdata.inconclusive", "algebra.Polynomial.mul.terms_out",
                 "cli.cache_hits", "cli.cache_bytes_written")


class Record:
    """One item run: latency in reference seconds, the factor it was
    scaled by, and the problem text when the item failed."""
    __slots__ = ("item", "seconds", "scale", "problem")

    def __init__(self, item, seconds, scale, problem):
        self.item, self.seconds, self.scale, self.problem = item, seconds, scale, problem


def run_pass(workload, ctx, references, rng, monitor, tracer=None):
    """One pass over every unit in a seeded order; returns the records.
    A raising or wrong item is recorded, never fatal."""
    units = list(workload.units)
    rng.shuffle(units)
    records = []
    refs = references.get(workload.name, {})
    for unit in units:
        ctx.new_unit()
        for item in unit:
            if tracer is not None:
                tracer.set_item(item.id)
            t0 = time.perf_counter()
            try:
                raw = item.call(ctx)
            except Exception as exc:  # a failed op; the run goes on
                raw, problem = None, f"raised {type(exc).__name__}: {exc}"
            else:
                problem = None
            seconds, scale = monitor.scaled(t0, time.perf_counter())
            if problem is None:
                try:
                    if item.ref not in refs:
                        problem = "no reference output"
                    else:
                        problem = workload.check(item, item.render(raw), refs[item.ref])
                except Exception as exc:  # malformed output is a failed op too
                    problem = f"output check raised {type(exc).__name__}: {exc}"
            records.append(Record(item, seconds, scale, problem))
    return records


def unexpected_failures(records):
    """Failed records, except a known defect failing as documented."""
    return [r for r in records if r.problem is not None
            and workloads.KNOWN_DEFECTS.get(r.item.id) != r.problem]


def pass_seconds(records):
    return sum(r.seconds for r in records)


def raw_pass_seconds(records):
    return sum(r.seconds / r.scale for r in records)


def measure_setup(name, env, monitor):
    """Median set-up time over fresh interpreters, after one untimed
    start that fills the bytecode cache."""
    if name == "cli":
        cmd = [sys.executable, "-c", "import mirrorcalc.cli"]
    else:
        cmd = [sys.executable, "-c", SETUP_CODE.format(bench=str(BENCH_DIR), name=name)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        with monitor.paused():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=str(ROOT), env=env, capture_output=True,
                                  text=True, timeout=workloads.CHILD_TIMEOUT_S, check=True)
            t1 = time.perf_counter()
        if name != "cli":  # the child timed itself: use its interval
            t0 = t1 - float(proc.stdout)
        if i:
            samples.append(monitor.scaled(t0, t1)[0])
    return statistics.median(samples)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(workload, references, seed, seconds, workdir, monitor):
    ctx = workloads.Context(ROOT, workdir, quiet=monitor.paused)
    setup_s = measure_setup(workload.name, ctx.env, monitor)
    rng = random.Random(seed)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, ctx, references, rng, monitor))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    records = [r for recs in passes for r in recs]
    per_item = {}
    for r in records:
        per_item.setdefault(r.item.id, []).append(r.seconds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_seconds(recs) for recs in passes),
        "item_p50_s": statistics.median(r.seconds for r in records),
        "item_max_s": max(statistics.median(v) for v in per_item.values()),
        "peak_rss_mb": peak_rss_mb(workload.name),
    }
    notes = [f"{len(passes)} passes of {len(passes[0])} items; item_p50_s over "
             f"{len(records)} items; item_max_s is the slowest item's median over "
             f"{len(passes)} passes; setup_s the median of {SETUP_REPEATS} interpreters",
             "raw pass seconds " + " ".join(f"{raw_pass_seconds(recs):.3f}" for recs in passes),
             f"median factor from raw to reference seconds "
             f"{statistics.median(r.scale for r in records):.4f}"]
    return metrics, records, notes


def per_layer(workload, references, seed, workdir, monitor):
    """Per-layer metrics from one traced pass.  Span times are scaled by
    the factor of the item they ran in."""
    rng = random.Random(seed)
    values, records = {}, []
    in_process = workload.name == "cli"
    if in_process:
        ctx = workloads.Context(ROOT, workdir, quiet=monitor.paused)
        recs = run_pass(workload, ctx, references, rng, monitor)
        records += recs
        for kind in CLI_KINDS:
            values[f"cli.{kind}.s"] = statistics.median(
                r.seconds for r in recs if r.item.kind == kind)
        values["cli.cache_bytes_written"] = ctx.cache_bytes()
        import mirrorcalc.cli  # noqa: F401  loaded before the untraced pass, as for the traced one
    plain = run_pass(workload, workloads.Context(ROOT, workdir, in_process), references, rng,
                     monitor)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_pass(workload, workloads.Context(ROOT, workdir, in_process),
                          references, rng, monitor, tracer)
    records += plain + traced

    for name in tracer.names:
        values.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
    for name, agg in tracer.summary([r.scale for r in traced]).items():
        values.update({f"{name}.{field}": agg[field] for field in ("calls", "s", "self_s")})
    for name in COUNT_METRICS:
        values.setdefault(name, tracer.counts[name])
    results = tracer.counts["eulerdata.results"]
    values["eulerdata.conclusive_ratio"] = (
        (results - tracer.counts["eulerdata.inconclusive"]) / results if results else 0.0)
    if in_process:
        ran_pipeline = {tracer.items[i] for i, name in zip(tracer.item, tracer.span_name)
                        if tracer.names[name] == "pipeline.run_pipeline"}
        values["cli.cache_hits"] = sum(1 for r in traced if r.item.kind.startswith("compute")
                                       and r.item.id not in ran_pipeline)
    for kind in CLI_KINDS:
        values.setdefault(f"cli.{kind}.s", 0.0)
    values["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(plain)
    notes = [f"traced pass {pass_seconds(traced):.4f} s, untraced pass "
             f"{pass_seconds(plain):.4f} s (reference seconds), {len(tracer.start)} spans"]
    return values, records, notes


def metadata():
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((SRC / "mirrorcalc").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit, "src_loc": loc,
            "reference_loop_s": calibration.REFERENCE_S}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mirrorcalc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mirrorcalc" / "__init__.py").is_file():
        print(f"error: no mirrorcalc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    references = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    workload = workloads.build(args.workload)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=str(BENCH_DIR)) as workdir, \
            calibration.SpeedMonitor() as monitor:
        if args.trace:
            values, records, notes = per_layer(workload, references, args.seed, workdir,
                                               monitor)
            wanted = spec["per_layer"]
        else:
            values, records, notes = end_to_end(workload, references, args.seed,
                                                args.seconds, workdir, monitor)
            wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = [r for r in records if r.problem is not None]
    unexpected = unexpected_failures(records)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!r:>24} {m['unit']}")
    print(f"  {'failed_ops':40s} {len(failed) / len(records)!r:>24} "
          f"share ({len(failed)} of {len(records)} items)")
    for item_id, problem in sorted({(r.item.id, r.problem) for r in failed}):
        known = workloads.KNOWN_DEFECTS.get(item_id) == problem
        print(f"  failed: {item_id}: {problem}" + (" [known defect]" if known else ""))
    print("meta " + json.dumps(metadata(), sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
