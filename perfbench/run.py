#!/usr/bin/env python3
"""Batch benchmark of the glocon CLI.

Run from the root of a checkout, one workload at a time::

    for w in bulk dense flat; do python3 perfbench/run.py --workload $w --seed 1 --seconds 35; done

``--trace 0`` generates the workload's inputs from the seed (timed as
``setup_s``, median of several set-ups), then runs the operations as
fresh child processes in a closed loop with one client: one child at a
time, rounds in rotated order, for about ``--seconds``.  Each
operation's time and peak RSS (from ``os.wait4``) are reported as the
median over its repetitions, with the sample count; glocon is a batch
tool, so there is no arrival rate.

A shared virtual machine changes speed by up to 1.7x from one second to
the next, and its mix of fast and slow stretches changes from one minute
to the next, which no number of repetitions averages away.  So a time is
CPU seconds (for a child ``ru_utime + ru_stime``, which leaves out time
the host took the CPU away) rescaled to a reference host speed: a probe
process at the lowest priority shares the one CPU that the benchmark and
its children are pinned to, and each sample is multiplied by
``UNIT_REF_S`` over the probe's CPU seconds per unit of fixed work while
the sample ran (see ``speed.py``), raised to ``SENSITIVITY``.  Set-up times are rescaled the same
way.  The wall-clock median is printed beside each time and kept in the
run record.

``--trace 1`` is a separate run that calls the public functions of each
glocon module in-process and derives the per-layer metrics from the
spans it records (see ``traced.py``).

Every output is checked against what the generator planted, and every
repetition must print the same bytes.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run record (samples, noise, problems) and the spans of a traced run
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import Counter

import gen
import ops
import traced
from launch import Launcher, child_env
from speed import SpeedProbe

SETUP_REPS = 5
UNIT_REF_S = 2e-4  # CPU seconds of one speed-probe unit on the reference host
# glocon slows down more than the probe when the host does: over 30 runs on a
# 2-vCPU virtual machine, times rescaled with exponent 1 still rose with the
# probe's unit time, and the spread between runs was least at 1.2 to 1.4
SENSITIVITY = 1.25
MIN_ROUNDS = 2
RSS_OPS = ("validate", "assemble", "stats", "roundtrip", "agree_lenient")
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def end_to_end_metrics() -> list[tuple[str, str]]:
    names = [("setup_s", "s")]
    for op in ops.TIMED:
        names.append((f"{op}_s", "s"))
        if op in RSS_OPS:
            names.append((f"{op}_rss_mb", "MB"))
    return names


def rescale(cpu: float, unit_s: float) -> float:
    """``cpu`` seconds at the reference host speed, given the probe's seconds per unit."""
    return cpu * (UNIT_REF_S / unit_s) ** SENSITIVITY


def commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def setup(workload: str, seed: int, paths: ops.Paths,
          probe: SpeedProbe) -> tuple[dict, dict]:
    """Generate and write the workload's files several times; all must be identical."""
    times, cpus, unit_s, digests = [], [], [], set()
    for _ in range(SETUP_REPS):
        mark = probe.read()
        started, cpu_started = time.perf_counter(), time.process_time()
        made = gen.generate(workload, seed)
        for path, data in ((paths.a, made["a"]), (paths.b, made["b"])):
            with open(path, "wb") as handle:
                handle.write(data)
        record = json.dumps(made["expected"], ensure_ascii=False).encode("utf-8")
        with open(os.path.join(paths.work, "expected.json"), "wb") as handle:
            handle.write(record)
        times.append(time.perf_counter() - started)
        cpus.append(time.process_time() - cpu_started)
        unit_s.append(probe.unit_seconds(mark))
        digests.add(hashlib.sha256(made["a"] + made["b"] + record).digest())
    if len(digests) != 1:
        raise RuntimeError("the generator is not deterministic for this seed")
    return made["expected"], {"wall": times, "cpu": cpus, "unit_s": unit_s,
                              "s": [rescale(*sample) for sample in zip(cpus, unit_s)]}


def end_to_end(paths: ops.Paths, expected: dict, seconds: float, launcher: Launcher,
               probe: SpeedProbe) -> dict:
    """Rounds of every operation in rotated order; the kappa checks ride on the first."""
    launcher.run(["-c", "import glocon.cli"], paths.stdout, paths.stderr)  # warm caches
    samples = {op: {"s": [], "wall": [], "cpu": [], "unit_s": [], "rss": []} for op in ops.TIMED}
    digests: dict[str, bytes] = {}
    problems: list[str] = []
    missed: Counter = Counter()
    attempted = failed = rounds = 0
    round_s = 0.0
    started = time.perf_counter()
    # start another round while it would end closer to `seconds` than stopping now
    while rounds < MIN_ROUNDS or time.perf_counter() - started + round_s / 2 < seconds:
        round_started = time.perf_counter()
        order = ops.TIMED[rounds % len(ops.TIMED):] + ops.TIMED[:rounds % len(ops.TIMED)]
        for op in order + (ops.KAPPA if rounds == 0 else ()):
            mark = probe.read()
            wall, code, rss, cpu = launcher.run(ops.argv(op, paths), paths.stdout, paths.stderr)
            unit_s = probe.unit_seconds(mark)
            attempted += 1
            digest = ops.output_digest(op, paths)
            if op not in digests:
                found = ops.check(op, paths, code, expected, missed)
                digests[op] = digest
            else:
                found = [] if digest == digests[op] else [f"{op}: output differs between repetitions"]
                if code != ops.expected_exit(op, expected):
                    found.append(f"{op}: exit code {code}")
            if found:
                failed += 1
                problems += found
            if op in samples:
                for key, value in (("s", rescale(cpu, unit_s)), ("wall", wall), ("cpu", cpu),
                                   ("unit_s", unit_s), ("rss", rss)):
                    samples[op][key].append(value)
        rounds += 1
        round_s = time.perf_counter() - round_started
    return {
        "samples": samples, "rounds": rounds, "measured_s": time.perf_counter() - started,
        "attempted": attempted, "failed": failed, "problems": problems, "missed": dict(missed),
    }


def report_end_to_end(result: dict, setup_times: dict) -> tuple[dict, list[str]]:
    """Every end-to-end metric is the median of the run's repetitions.

    Times are CPU seconds at the reference host speed; the raw wall-clock
    median is printed beside them.
    """
    series = {"setup_s": (setup_times["s"], setup_times["wall"])}
    for op, s in result["samples"].items():
        series[f"{op}_s"] = (s["s"], s["wall"])
        series[f"{op}_rss_mb"] = (s["rss"], None)
    metrics, lines = {}, []
    for name, unit in end_to_end_metrics():
        values, walls = series[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        wall = "" if walls is None else f"; wall median {statistics.median(walls):.4f} s"
        lines.append(f"{name:<22} {statistics.median(values):>9.4f} {unit:<3} (median of"
                     f" n={len(values)}; min {min(values):.4f}, max {max(values):.4f}{wall})")
    missed = result["missed"]
    lines.append(f"planted W140/W141 that validate missed: W140={missed.get('W140', 0)}"
                 f" W141={missed.get('W141', 0)} (the separation check is not run by validate)")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "glocon", "cli.py")):
        print("perfbench: run from the root of a glocon checkout (no src/glocon here)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    paths = ops.Paths(os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"))
    noise = {
        "commit": commit(root), "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "loadavg_start": os.getloadavg(),
    }
    # one CPU for the benchmark, its children and the speed probe, so that
    # the probe measures the speed of the CPU the children run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    launcher = None
    try:
        launcher = Launcher(child_env(root))
        os.makedirs(paths.work)
        os.makedirs(OUT_DIR, exist_ok=True)
        expected, setup_times = setup(args.workload, args.seed, paths, probe)
        noise["probe_unit_s"] = statistics.median(setup_times["unit_s"])
        if args.trace:
            result = traced.run(args.workload, args.seed, args.seconds, paths, expected, root,
                                launcher)
            metrics, lines = traced.report(result)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            with open(spans_path, "w", encoding="utf-8") as handle:
                for span in result.pop("spans"):
                    handle.write(json.dumps(span) + "\n")
            lines.append(f"spans written to {spans_path}")
        else:
            result = end_to_end(paths, expected, args.seconds, launcher, probe)
            metrics, lines = report_end_to_end(result, setup_times)
    finally:
        if launcher is not None:
            launcher.close()
        probe.close()
        shutil.rmtree(paths.work, ignore_errors=True)
    noise["loadavg_end"] = os.getloadavg()

    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_s=setup_times, noise=noise, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
          f" attempted={result['attempted']} failed={result['failed']}")
    for line in lines:
        print(line)
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"noise: commit={noise['commit'][:12]} python={noise['python']}"
          f" cpus={noise['cpu_count']} probe_unit_s={noise['probe_unit_s']:.6f}"
          f" load={noise['loadavg_start'][0]:.2f}->{noise['loadavg_end'][0]:.2f}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
