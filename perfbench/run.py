#!/usr/bin/env python3
"""ProgRES benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench_harness (the timed
client, linked against src/) into .bench_build/, generates the seed's six
TSV datasets once (cached and checksummed), resolves each once on the
serial simulated backend as its reference, then repeats fresh measured
processes for S seconds, rotating through the datasets. Every process's pairs must match the reference and
its layer invariants must hold. The last line of stdout is one JSON object
with the end-to-end metrics; --trace 1 runs the traced mode and reports the
per-layer metrics instead (see README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import perfstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Workload and metric names, and the metrics' units.
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Each seed stands for this many generated datasets, measured in rotation.
# Schedule generation splits trees only on some inputs, which moves
# setup_s and dups_50_s by up to 25% from one dataset to the next; a metric
# is the mean over the datasets of their medians, so one run never rests on
# a few draws.
DATASETS_PER_SEED = 6
# Datasets prepared at once: a few cores, and memory for the larger inputs.
PREPARE_JOBS = 3
# A run must end within 180 s; a process normally takes 2-4 s.
PROCESS_TIMEOUT_S = 60
INPUT_FILES = ("data.tsv", "train.tsv", "train_truth.tsv")
# Reconciliation tolerances of the traced run. Run-to-run drift on the
# shared 4-vCPU host this was built on reaches 15-20% per process, so
# timings from different processes are only compared within
# SETUP_TOLERANCE; span arithmetic must agree to ARITHMETIC_TOLERANCE.
SETUP_TOLERANCE = 0.35
ARITHMETIC_TOLERANCE = 1e-6


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns its path or None."""
    build_dir = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_harness")


def scan_file(path):
    """(newline count, sha256) of a file."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return lines, h.hexdigest()


def inputs_ok(data_dir, manifest):
    for name in INPUT_FILES:
        path = os.path.join(data_dir, name)
        if not os.path.exists(path):
            return False
        if list(scan_file(path)) != manifest["files"][name]:
            return False
    return True


def parse_result(mode, returncode, stdout, stderr):
    """The JSON line a harness process printed; raises if it failed."""
    if returncode != 0:
        raise RuntimeError("harness %s exited %d: %s" %
                           (mode, returncode, stderr.strip()))
    return json.loads(stdout.strip().splitlines()[-1])


def run_harness(harness, args):
    proc = subprocess.run([harness] + args, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    return parse_result(args[0], proc.returncode, proc.stdout, proc.stderr)


class Dataset:
    """One generated input set: its directory and its manifest."""

    def __init__(self, data_dir, manifest):
        self.dir = data_dir
        self.manifest = manifest

    @property
    def reference(self):
        return self.manifest["reference"]


def prepare(harness, workload, seed, scale):
    """Generates (or reuses) the datasets and references of (workload, seed).

    Missing datasets are prepared PREPARE_JOBS at a time, outside any
    timing. The
    cache key includes the harness binary's hash: the generator and the
    program under test are both linked into it.
    """
    key = scan_file(harness)[1][:16]
    inputs = os.path.join(BUILD, "inputs")
    # Inputs cached by an older harness can never be used again.
    if os.path.isdir(inputs):
        for name in os.listdir(inputs):
            if not name.endswith("-" + key):
                shutil.rmtree(os.path.join(inputs, name), ignore_errors=True)
    datasets, todo = [], []
    for i in range(DATASETS_PER_SEED):
        data_seed = seed * DATASETS_PER_SEED + i
        data_dir = os.path.join(inputs, "%s-%d-%g-%s" % (
            workload, data_seed, scale, key))
        manifest_path = os.path.join(data_dir, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path) as f:
                manifest = json.load(f)
            if inputs_ok(data_dir, manifest):
                datasets.append(Dataset(data_dir, manifest))
                continue
            log("cached inputs in %s failed verification" % data_dir)
        shutil.rmtree(data_dir, ignore_errors=True)
        todo.append((i, data_dir, data_seed))
        datasets.append(None)
    started = time.monotonic()
    errors = []
    for first in range(0, len(todo), PREPARE_JOBS):
        batch = [(i, data_dir, data_seed, subprocess.Popen(
            [harness, "prepare", "--workload=" + workload,
             "--seed=%d" % data_seed, "--dir=" + data_dir,
             "--scale=%g" % scale],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for i, data_dir, data_seed in todo[first:first + PREPARE_JOBS]]
        try:
            errors += finish_prepare(workload, scale, batch, datasets)
        finally:
            for *_, proc in batch:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    if errors:
        raise RuntimeError("; ".join(errors))
    if todo:
        log("prepared %d dataset(s) in %.1f s" % (
            len(todo), time.monotonic() - started))
    return datasets


def finish_prepare(workload, scale, batch, datasets):
    """Waits for a batch of prepare processes and records their datasets
    in `datasets`; returns the errors."""
    errors = []
    for i, data_dir, data_seed, proc in batch:
        try:
            stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            errors.append("prepare of dataset %d timed out" % data_seed)
            continue
        try:
            ref = parse_result("prepare", proc.returncode, stdout, stderr)
        except (RuntimeError, ValueError) as e:
            errors.append(str(e))
            continue
        files = {name: list(scan_file(os.path.join(data_dir, name)))
                 for name in INPUT_FILES}
        # Header row + one row per entity.
        if files["data.tsv"][0] != ref["rows"] + 1:
            errors.append("%s: row count does not match the generator" %
                          data_dir)
            continue
        manifest = {"workload": workload, "seed": data_seed, "scale": scale,
                    "files": files, "reference": ref}
        with open(os.path.join(data_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        datasets[i] = Dataset(data_dir, manifest)
        log("prepared %s dataset %d: %d rows, %d reference pairs, "
            "precision %.4f, recall %.4f, %d pairs re-decided" % (
                workload, data_seed, ref["rows"], ref["pairs"],
                ref["precision"], ref["recall"], ref["anchor_checked"]))
    return errors


class Runner:
    def __init__(self, harness, workload, datasets, scale):
        self.harness = harness
        self.workload = workload
        self.datasets = datasets
        self.scale = scale
        self.work = os.path.join(BUILD, "work", str(os.getpid()))
        self.attempted = 0
        # (process number, reason) of every failure.
        self.failures = []

    def fail(self, reason):
        """Marks the latest process as failed."""
        self.failures.append((self.attempted, reason))

    @property
    def failed(self):
        return len({number for number, _ in self.failures})

    def process(self, dataset, mode, extra=()):
        """One measured process on `dataset`, checked against its inputs
        and reference.

        Returns the process's JSON result, or None when it produced none.
        Every call counts as attempted and every failure is recorded; a
        process whose pairs or invariants are wrong still returns its
        timings, which stay in the medians.
        """
        self.attempted += 1
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            if not inputs_ok(dataset.dir, dataset.manifest):
                raise RuntimeError("inputs changed since generation")
            result = run_harness(self.harness, [
                mode, "--workload=" + self.workload, "--dir=" + dataset.dir,
                "--work=" + self.work, "--scale=%g" % self.scale,
                "--stats-spill-bytes=%d" %
                dataset.reference["stats_spill_bytes"]] + list(extra))
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            self.fail("%s: %s" % (mode, e))
            return None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        ref = dataset.reference
        # A reference that failed its anchor fails every process on it.
        errors = (list(result.get("invariant_errors", [])) +
                  ref["anchor_errors"])
        if (result["pairs"] != ref["pairs"] or
                result["digest"] != ref["digest"]):
            errors.append("pairs differ from the serial reference "
                          "(%d vs %d)" % (result["pairs"], ref["pairs"]))
        if errors:
            self.fail("%s: %s" % (mode, "; ".join(errors)))
        return result


def end_to_end(runner, seconds, names):
    """Measured processes in dataset rotation until `seconds` have passed
    and every dataset has been measured; returns metric name -> value.

    A warm-up process on the first dataset comes first: it is checked and
    counted like the others, but its timings stay out of the medians."""
    runner.process(runner.datasets[0], "measure")
    reps = [[] for _ in runner.datasets]
    started = time.monotonic()
    count = 0
    while count < len(reps) or time.monotonic() - started < seconds:
        index = count % len(reps)
        result = runner.process(runner.datasets[index], "measure")
        if result is not None:
            reps[index].append(result)
        count += 1
    if not all(reps):
        return {}
    metrics = {}
    for name in names:
        groups = [[r[name] for r in group] for group in reps]
        metrics[name] = perfstats.mean_of_medians(groups)
        pct, value, n = perfstats.tail(sum(groups, []))
        tail = "p%g %.4f" % (pct, value) if pct else "no tail percentile"
        log("%-12s %10.4f  per-dataset medians %s; %s (n=%d)" % (
            name, metrics[name],
            " ".join("%.4f" % statistics.median(g) for g in groups), tail, n))
    return metrics


TRACED_MEDIANS = (
    "model.load_s", "estimate.train_s", "core.stats_job_s",
    "estimate.annotate_s", "schedule.generate_s", "schedule.blocks",
    "mapreduce.stats_map_s", "mapreduce.stats_reduce_s",
    "mapreduce.shuffle_bytes", "mapreduce.spill_runs",
    "mapreduce.spill_bytes", "mapreduce.merge_passes",
    "mapreduce.checkpoints_saved", "mechanism.busy_s", "mechanism.calls",
    "mechanism.comparisons", "mechanism.dups_per_cmp", "mechanism.imbalance",
    "redundancy.check_s", "redundancy.checks", "redundancy.skip_ratio",
    "similarity.ns_per_cmp", "similarity.sample_pairs",
)


def traced(runner, seconds, trace_path):
    """The traced mode: cycles of (untraced, traced[, persistence off]) on
    one dataset each, rotating through the datasets. Ratios between the
    processes of a cycle compare like with like; each is the median over
    the cycles."""
    durable = runner.workload == "books-durable"
    steps = [("measure", ()), ("trace", ("--trace-out=" + trace_path,))]
    if durable:
        steps.append(("measure", ("--no-persist",)))
    cycles = []
    started = time.monotonic()
    while not cycles or time.monotonic() - started < seconds:
        dataset = runner.datasets[len(cycles) % len(runner.datasets)]
        cycles.append([runner.process(dataset, mode, extra)
                       for mode, extra in steps])
    cycles = [c for c in cycles if all(r is not None for r in c)]
    if not cycles:
        return {}
    traces = [c[1] for c in cycles]

    def med(values):
        return statistics.median(list(values))

    m = {key: med(t[key] for t in traces) for key in TRACED_MEDIANS}
    m["similarity.kernel_share"] = med(
        t["mechanism.comparisons"] * t["similarity.ns_per_cmp"] * 1e-9 /
        t["mechanism.busy_s"] for t in traces)
    m["mechanism.capacity_s"] = med(
        t["threads"] * t["mechanism.resolution_wall_s"] for t in traces)
    m["mechanism.util"] = med(
        t["mechanism.busy_s"] /
        (t["threads"] * t["mechanism.resolution_wall_s"]) for t in traces)
    blocks = traces[-1]["block_us"]
    pct, value, n = perfstats.tail(blocks)
    m["mechanism.block_p50_us"] = perfstats.percentile(blocks, 50)
    m["mechanism.block_tail_pct"] = pct or 0.0
    m["mechanism.block_tail_us"] = value or 0.0
    m["mechanism.block_n"] = n
    m["mapreduce.checkpoint_s"] = med(
        c[0]["resolve_s"] - c[2]["resolve_s"] for c in cycles) \
        if durable else 0.0
    m["trace.overhead_frac"] = med(
        c[1]["traced_resolve_s"] / c[0]["resolve_s"] - 1.0 for c in cycles)
    m["trace.setup_ratio"] = med(
        c[1]["traced_setup_s"] / c[0]["setup_s"] for c in cycles)
    m["trace.decomposition_share"] = med(
        t["decomposition_s"] / t["traced_setup_s"] for t in traces)
    m["trace.preprocess_ratio"] = med(t["preprocess_ratio"] for t in traces)

    # Span arithmetic of the last traced process, whose trace is on disk.
    last = traces[-1]
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["id"]: {"start": e["ts"] * 1e-6,
                               "end": (e["ts"] + e["dur"]) * 1e-6,
                               "parent": e["args"]["parent"]}
             for e in events}
    own = perfstats.self_times(spans)
    total = perfstats.thread_total(spans)
    self_sum = sum(own.values())
    m["trace.self_sum_s"] = self_sum
    m["trace.thread_total_s"] = total
    m["trace.self_error"] = abs(self_sum - total) / total
    run_span = next(e for e in events if e["name"] == "Run")
    m["core.run_self_s"] = own[run_span["args"]["id"]]

    errors = []
    if m["trace.self_error"] > ARITHMETIC_TOLERANCE:
        errors.append("span self-times sum to %.6f s, traced total %.6f s" %
                      (self_sum, total))
    for t in traces:
        if t["mechanism.busy_s"] > t["threads"] * \
                t["mechanism.resolution_wall_s"] * (1 + ARITHMETIC_TOLERANCE):
            errors.append("mechanism busy %.4f s exceeds %d threads x %.4f s"
                          % (t["mechanism.busy_s"], t["threads"],
                             t["mechanism.resolution_wall_s"]))
        if not t["schedule_matches"]:
            errors.append("the decomposition's schedule differs from the "
                          "one ProgressiveEr::Preprocess generates")
        if t["mechanism.comparisons"] != t["mechanism.run_comparisons"]:
            errors.append("wrapper saw %d comparisons, the run reports %d" % (
                t["mechanism.comparisons"], t["mechanism.run_comparisons"]))
    if abs(m["trace.setup_ratio"] - 1.0) > \
            max(SETUP_TOLERANCE, abs(m["trace.overhead_frac"])):
        errors.append("traced setup is %.3f x the untraced setup_s" %
                      m["trace.setup_ratio"])
    # The decomposition must account for the driver's preprocessing, no
    # more and no less; the rest of the traced setup is the resolution
    # job's map/shuffle, so its share of setup may only be below 1.
    if abs(m["trace.preprocess_ratio"] - 1.0) > SETUP_TOLERANCE:
        errors.append("the decomposition takes %.3f x the time of "
                      "ProgressiveEr::Preprocess" %
                      m["trace.preprocess_ratio"])
    if m["trace.decomposition_share"] > 1.0 + SETUP_TOLERANCE:
        errors.append("preprocessing decomposition is %.3f x traced setup" %
                      m["trace.decomposition_share"])
    if errors:
        runner.fail("reconciliation: " + "; ".join(errors))

    table = perfstats.layer_table(
        spans, {e["args"]["id"]: e["cat"] for e in events})
    log("self time by layer (last traced process, %d spans, %.3f thread-s):"
        % (len(spans), total))
    for layer, value in sorted(table.items(), key=lambda kv: -kv[1]):
        log("  %-10s %9.4f s  %5.1f%%" % (layer, value, 100 * value / total))
    log("reconciliation over %d cycle(s): self-sum %.6f s vs thread total "
        "%.6f s; busy %.4f s of capacity %.4f s; traced/untraced setup %.3f "
        "(base %.4f s); decomposition/traced setup %.3f (base %.4f s); "
        "decomposition/Preprocess %.3f (base %.4f s)" % (
            len(cycles), self_sum, total, m["mechanism.busy_s"],
            m["mechanism.capacity_s"], m["trace.setup_ratio"],
            med(c[0]["setup_s"] for c in cycles),
            m["trace.decomposition_share"],
            med(t["traced_setup_s"] for t in traces),
            m["trace.preprocess_ratio"],
            med((t["core.stats_job_s"] + t["estimate.annotate_s"] +
                 t["schedule.generate_s"]) / t["preprocess_ratio"]
                for t in traces)))
    log("trace written to %s" % trace_path)
    return m


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every workload; the smoke test runs at a tiny scale.
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    harness = build()
    if harness is None:
        log("perfbench: build failed")
        return 1
    try:
        datasets = prepare(harness, args.workload, args.seed, args.scale)
    except (RuntimeError, ValueError, OSError) as e:
        log("perfbench: preparing inputs failed: %s" % e)
        return 1

    runner = Runner(harness, args.workload, datasets, args.scale)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))
        values = traced(runner, args.seconds, trace_path)
    else:
        values = end_to_end(runner, args.seconds,
                            [m["name"] for m in wanted])
    # Empty when every process failed; otherwise every listed metric.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values}
    for number, reason in runner.failures:
        log("FAILED process %d: %s" % (number, reason))
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
