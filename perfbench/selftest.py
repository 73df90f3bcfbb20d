#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; exits non-zero on any failure.

    python3 perfbench/selftest.py

Checks that equal seeds write byte-identical inputs, that every output
check passes on real outputs and fails on a deliberately corrupted copy,
and that the trace wrappers put every original function back.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from pathlib import Path

import run

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def tiny_workloads(workloads, generator):
    fpr = dict(fpr_trials=2, fpr_sweeps=3)
    return [
        workloads.Workload(name="small_null", fit_sweeps=3, **fpr),
        workloads.Workload(
            name="tiny_stream", fit_sweeps=2, **fpr,
            stream=generator.StreamShape(nodes=60, communities=4, planted_pairs=10),
            sizes=dict(n_train=400, n_calib=200, n_null=100, n_anomalous=30),
        ),
    ]


def rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def drop_last_row(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def set_field(column: int, value: str):
    """Replace one field of the first data row of a CSV."""
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[column] = value
        lines[1] = ",".join(fields) + "\n"
        return "".join(lines)
    return edit


def non_canonical_hex(text: str) -> str:
    """Same value, other spelling: 0x1.8p-1 becomes 0x3.0p-2."""
    match = re.search(r'"0x1\.([0-9a-f]+)p(-?\d+)"', text)
    digits, exponent = match.group(1), int(match.group(2))
    doubled = format(int("1" + digits, 16) * 2, "x")
    replacement = f'"0x{doubled[0]}.{doubled[1:]}p{exponent - 1}"'
    return text[:match.start()] + replacement + text[match.end():]


# (command whose check must fail, file, what is wrong, corruption)
CORRUPTIONS = [
    ("fit", "model.adnd", "truncated", lambda text: text[: len(text) // 2]),
    ("fit", "model.adnd", "non-canonical hex float", non_canonical_hex),
    ("detect", "verdicts.csv", "a row missing", drop_last_row),
    ("detect", "verdicts.csv", "p-value 0", set_field(3, "0")),
    ("detect", "verdicts.csv", "p-value above 1", set_field(3, "1.5")),
    ("detect", "verdicts.csv", "flag disagrees with p",
     lambda text: set_field(4, "1")(set_field(3, "0.5")(text))),
    ("score", "alphas.csv", "a row missing", drop_last_row),
    ("score", "alphas.csv", "alpha differs from detect", set_field(2, "123.5")),
    ("rhss", "baseline.csv", "a row missing", drop_last_row),
    ("eval", "run_auc.txt", "wrong AUC", lambda text: "0.25\n"),
    ("fpr-sim", "fpr.csv", "n_test not trials x test edges", set_field(3, "7")),
    ("fpr-sim", "fpr.csv", "FPR above the bound", set_field(1, "0.9")),
]


def main() -> int:
    run.pin_threads()
    cli, adnd = run.import_package()
    import checks
    import generator
    import tracing
    import workloads

    base = run.OUT / f"selftest-{os.getpid()}"
    try:
        for workload in tiny_workloads(workloads, generator):
            name = workload.name
            a, b, c = (base / name / d for d in ("a", "b", "c"))
            for d in (a, b, c):
                d.mkdir(parents=True)
            workload.make_inputs(a, 7, cli.main)
            workload.make_inputs(b, 7, cli.main)
            workload.make_inputs(c, 8, cli.main)
            inputs = ("train.csv", "calib.csv", "test.csv")
            expect(all((a / f).read_bytes() == (b / f).read_bytes() for f in inputs),
                   f"{name}: equal seeds give byte-identical inputs")
            if workload.stream is not None:
                expect((a / "train.csv").read_bytes() != (c / "train.csv").read_bytes(),
                       f"{name}: another seed gives other inputs")

            labels = checks.read_labels(a / "test.csv")
            passes = run.run_pass(workload, a, 7, cli.main)
            expect(all(p["code"] == 0 for p in passes), f"{name}: every command exits 0")
            problems, facts = checks.check_sequence(a, workload, labels, adnd)
            expect(not any(problems.values()), f"{name}: checks pass on real outputs {problems}")
            expect({"auc", "neg_elbo_per_edge"} <= facts.keys(), f"{name}: checks report auc and ELBO")

            for command, filename, what, corrupt in CORRUPTIONS:
                shutil.rmtree(b)
                shutil.copytree(a, b)
                rewrite(b / filename, corrupt)
                bad, _ = checks.check_sequence(b, workload, labels, adnd)
                expect(bool(bad[command]), f"{name}: {filename} with {what} fails the {command} check")

        check_trace_restores(cli, adnd, tracing, workloads, generator, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


def check_trace_restores(cli, adnd, tracing, workloads, generator, base) -> None:
    targets = tracing.SPAN_TARGETS + tracing.EDGE_TARGETS
    originals = [vars(found[0])[found[1]]
                 for found in (tracing._resolve("edgeanomaly", o, a) for o, a, _ in targets)]
    tracer = tracing.Tracer()
    bogus = (("adnd", "no_such_function", "adnd.none"),)
    installed = tracing.Installed(tracer, "edgeanomaly", -adnd.LOG_FLOOR,
                                  span_targets=tracing.SPAN_TARGETS + bogus)
    expect(installed.absent == ["adnd.no_such_function"], "a missing target is reported absent")
    wrapped = [vars(found[0])[found[1]]
               for found in (tracing._resolve("edgeanomaly", o, a) for o, a, _ in targets)]
    expect(all(w is not o for w, o in zip(wrapped, originals)), "every target is wrapped")
    workload = tiny_workloads(workloads, generator)[1]
    workdir = base / "traced"
    workdir.mkdir(parents=True)
    workload.make_inputs(workdir, 7, cli.main)
    try:
        passes = run.run_pass(workload, workdir, 7, cli.main, tracer)
    finally:
        installed.remove()
    expect(all(p["code"] == 0 for p in passes), "traced pass: every command exits 0")
    restored = [vars(found[0])[found[1]]
                for found in (tracing._resolve("edgeanomaly", o, a) for o, a, _ in targets)]
    expect(all(r is o for r, o in zip(restored, originals)), "removing the wrappers restores every original")
    layers = tracing.layer_metrics(tracer)
    wanted = {name for name in run.LAYER_UNITS
              if not name.startswith(("trace.", "inputs.", "evaluation.trial", "adnd.model"))}
    expect(wanted <= layers.keys(), f"traced pass yields every span-based figure {wanted - layers.keys()}")
    expect(len(tracing.trial_ms(tracer)) == workload.fpr_trials, "one trial time per fpr-sim trial")


if __name__ == "__main__":
    sys.exit(main())
