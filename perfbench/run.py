#!/usr/bin/env python3
"""End-to-end benchmark of the edgeanomaly command line pipeline.

    python3 perfbench/run.py --workload small_null --seed 0 --seconds 30 --trace 0

Runs one workload in this process, closed loop with one client: each CLI
command is invoked in-process through `edgeanomaly.cli.main(argv)` and
starts only after the previous one has finished. The package is imported
from `src/` of the checkout this file sits in.

A run first sets up several times (the package import in a fresh
interpreter, then generating the workload's input CSVs from `--seed`; every
set-up must write byte-identical inputs) and reports the median as `setup_s`. It then repeats the command
sequence (see workloads.py) for about `--seconds` seconds and reports the
median of every timing over passes. The first pass's outputs go through
every check in checks.py; later passes must reproduce its files byte for
byte. A command that exits non-zero or whose output fails a check counts as
failed.

With `--trace 1` passes alternate between untraced and traced, and the
run reports per-layer figures from the traced passes (see tracing.py) plus
the tracing overhead, traced `run_s` over untraced `run_s`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A fuller record (machine facts, output
digests, every pass, spans) goes to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("small_null", "wide_fit", "detect_stream")
SETUPS = 3
MIN_PASSES = 2
# BLAS and OpenMP threads per workload process. One thread keeps runs on a
# shared two-core machine steady; the products here are too small to gain.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "fit_s": "s",
    "detect_edges_per_s": "edges/s",
    "fpr_trials_per_s": "trials/s",
    "auc": "1",
    "neg_elbo_per_edge": "nats/edge",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "inputs.train_nodes": "count",
    "graph_core.read_s": "s",
    "graph_core.intern_s": "s",
    "graph_core.rows_read": "count",
    "adnd.doc_update_ms": "ms",
    "adnd.corpus_update_ms": "ms",
    "adnd.elbo_ms": "ms",
    "adnd.sweeps": "count",
    "adnd.sample_s": "s",
    "adnd.save_s": "s",
    "adnd.load_s": "s",
    "adnd.model_bytes": "bytes",
    "conformal.score_us_per_edge": "us",
    "conformal.edges_scored": "count",
    "conformal.pvalue_ms": "ms",
    "conformal.unseen_share": "share",
    "conformal.floor_share": "share",
    "rhss.build_s": "s",
    "rhss.score_us_per_edge": "us",
    "evaluation.trial_ms_p50": "ms",
    "evaluation.trial_ms_p90": "ms",
    "evaluation.curves_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> None:
    """Must run before numpy is imported: BLAS reads these at load time."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import edgeanomaly from this checkout's src/; returns (cli, adnd)."""
    sys.path.insert(0, str(SRC))
    from edgeanomaly import adnd, cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"edgeanomaly imported from {cli.__file__}, not from {SRC}")
    return cli, adnd


IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import edgeanomaly.cli; print(time.perf_counter() - start)"
)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the package's CLI."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_pinned": BLAS_THREADS,
    }


def blas_threads(np):
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_pass(workload, workdir, seed, cli_main, tracer=None) -> list[dict]:
    """One pass of the command sequence: one {"command", "s", "code"} per command run."""
    results = []
    for command, argv in workload.commands(workdir, seed):
        captured = io.StringIO()
        span = tracer.begin("cli." + command) if tracer else None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli_main(argv)
        except Exception:  # a crashing command is a failed command, not a crashed run
            traceback.print_exc()
            code = -1
        seconds = perf_counter() - start
        if tracer:
            tracer.end(span)
        if code != 0:
            print(f"edgeanomaly {' '.join(argv)} exited {code}: {captured.getvalue()}",
                  file=sys.stderr)
        results.append({"command": command, "s": seconds, "code": code})
    return results


def setup(workload, workdir, seed, cli_main, checks) -> tuple[list[float], bool, dict]:
    """Set up SETUPS times: import the package in a fresh interpreter, then
    generate the inputs. Returns (seconds per set-up, inputs identical, digests)."""
    seconds, digests = [], []
    for _ in range(SETUPS):
        import_s = fresh_import_s()
        start = perf_counter()
        workload.make_inputs(workdir, seed, cli_main)
        seconds.append(import_s + perf_counter() - start)
        digests.append({name: checks.sha256(workdir / name)
                        for name in ("train.csv", "calib.csv", "test.csv")})
    return seconds, all(d == digests[0] for d in digests), digests[0]


def read_pairs(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [tuple(line.rstrip("\n").split(",")[:2]) for line in fh]


def input_shape(workdir: Path) -> dict:
    """Row counts, distinct training nodes, and calibration plus test edges
    with an endpoint the training file never names (the unseen slot)."""
    train = read_pairs(workdir / "train.csv")
    nodes = {node for pair in train for node in pair}
    calib, test = read_pairs(workdir / "calib.csv"), read_pairs(workdir / "test.csv")
    return {
        "train_rows": len(train),
        "calib_rows": len(calib),
        "test_rows": len(test),
        "train_nodes": len(nodes),
        "unseen_edges": sum(src not in nodes or dst not in nodes for src, dst in calib + test),
    }


def measure(args, cli, adnd) -> dict:
    import checks
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_runs, inputs_identical, input_digests = setup(
            workload, workdir, args.seed, cli.main, checks)
        labels = checks.read_labels(workdir / "test.csv")
        inputs = input_shape(workdir)
        inputs["test_anomalous"] = int(labels.sum())
        inputs["digests"] = input_digests

        passes, tracers, facts, reference = [], [], {}, None
        loop_start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - loop_start < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            installed = tracing.Installed(tracer, "edgeanomaly", -adnd.LOG_FLOOR) if traced else None
            start = perf_counter()
            try:
                commands = run_pass(workload, workdir, args.seed, cli.main, tracer)
            finally:
                if installed:
                    installed.remove()
            record = {"traced": traced, "s": perf_counter() - start, "commands": commands}
            digests = checks.output_digests(workdir)
            if reference is None:
                reference = digests
                try:
                    problems, facts = checks.check_sequence(workdir, workload, labels, adnd)
                except Exception:  # a check that crashes fails every command
                    problems = {c: [traceback.format_exc()] for c in checks.OUTPUT_FILES}
            else:
                problems = {
                    command: [f"{name} differs from the first pass"
                              for name in names if digests.get(name) != reference.get(name)]
                    for command, names in checks.OUTPUT_FILES.items()
                }
            record["problems"] = {c: p for c, p in problems.items() if p}
            record["failed"] = failed_runs(commands, record["problems"])
            passes.append(record)
            if traced:
                tracers.append((tracer, installed.absent))

        return summarize(args, workload, passes, tracers, facts, inputs, inputs_identical,
                         setup_runs, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def failed_runs(commands: list[dict], problems: dict) -> int:
    """Commands that exited non-zero, plus the last run of each command whose
    output failed a check (the run that wrote the checked files)."""
    last = {c["command"]: c for c in commands}
    return sum(c["code"] != 0 for c in commands) + sum(
        last[command]["code"] == 0 for command in problems if command in last)


def median_of(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def median_command_s(passes, command: str) -> float:
    return statistics.median(
        c["s"] for p in passes for c in p["commands"] if c["command"] == command)


def summarize(args, workload, passes, tracers, facts, inputs, inputs_identical,
              setup_runs, digests) -> dict:
    import tracing

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "run_s": median_of(plain, lambda p: p["s"]),
        "setup_s": statistics.median(setup_runs),
        "fit_s": median_command_s(plain, "fit"),
        "detect_edges_per_s": (inputs["calib_rows"] + inputs["test_rows"])
        / median_command_s(plain, "detect"),
        "fpr_trials_per_s": workload.fpr_trials / median_command_s(plain, "fpr-sim"),
        "auc": facts.get("auc"),
        "neg_elbo_per_edge": facts.get("neg_elbo_per_edge"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    layers, absent, spans = {}, [], []
    if tracers:
        per_pass = [tracing.layer_metrics(t) for t, _ in tracers]
        for name in LAYER_UNITS:
            values = [m[name] for m in per_pass if name in m]
            if values:
                layers[name] = statistics.median(values)
        trials = [ms for t, _ in tracers for ms in tracing.trial_ms(t)]
        if len(trials) > 1:
            layers["evaluation.trial_ms_p50"] = statistics.median(trials)
            layers["evaluation.trial_ms_p90"] = statistics.quantiles(trials, n=10)[8]
        traced_run_s = median_of([p for p in passes if p["traced"]], lambda p: p["s"])
        layers["trace.overhead_ratio"] = traced_run_s / metrics["run_s"]
        layers["inputs.train_nodes"] = inputs["train_nodes"]
        layers["adnd.model_bytes"] = facts.get("model_bytes")
        absent = sorted({name for _, gone in tracers for name in gone})
        spans = [tracing.span_records(t) for t, _ in tracers]
    layers = {k: layers[k] for k in LAYER_UNITS if layers.get(k) is not None}

    shown = layers if args.trace else metrics
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and inputs_identical and None not in metrics.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items() if v is not None},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "inputs": inputs,
        "inputs_identical_across_setups": inputs_identical,
        "setup_runs_s": setup_runs, "error_rate": failed / attempted,
        "end_to_end": metrics, "per_layer": layers, "absent": absent,
        "output_digests": digests, "sweeps": facts.get("sweeps"),
        "passes": passes, "spans": spans, "result": result,
    }
    return record


def report(record: dict) -> None:
    result = record["result"]
    m = record["machine"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} blas={m['blas']} blas_threads={m['blas_threads']} "
          f"(pinned {m['blas_threads_pinned']})")
    i = record["inputs"]
    print(f"inputs: train={i['train_rows']} ({i['train_nodes']} distinct nodes) "
          f"calib={i['calib_rows']} test={i['test_rows']} ({i['test_anomalous']} anomalous), "
          f"{i['unseen_edges']} calib+test edges touch an unseen node")
    for name, entry in result["metrics"].items():
        print(f"  {name:<30} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':<30} {record['error_rate']:.6g} share "
          f"({result['failed']} of {result['attempted']} commands failed)")
    if record["absent"]:
        print(f"absent trace targets: {', '.join(record['absent'])}")
    for p in record["passes"]:
        for command, issues in p["problems"].items():
            for issue in issues:
                print(f"FAILED {command}: {issue}")
    for name, digest in sorted(record["output_digests"].items()):
        print(f"  sha256 {name:<14} {digest}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgeanomaly" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    pin_threads()
    cli, adnd = import_package()
    record = measure(args, cli, adnd)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
