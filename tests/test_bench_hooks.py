"""The benchmark's traced run finds every package name it wraps.

perfbench/tracing.py wraps functions at the module attributes through which
the package calls them. A refactor that renames or moves one of them leaves
the traced run without that layer's figures, so this test reads the target
lists from tracing.py and resolves each entry against the package. A
refactor that keeps the names but stops calling through them (say, a
batched scorer beside the per-edge one) leaves the figures empty instead,
so the traced commands are also run here and their figures checked.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgeanomaly import adnd, cli, evaluation

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner,attr,span", tracing.SPAN_TARGETS + tracing.EDGE_TARGETS)
def test_trace_target_resolves(owner, attr, span):
    found = tracing._resolve("edgeanomaly", owner, attr)
    assert found is not None, f"{owner}.{attr} (traced as {span}) is gone"
    obj, name = found
    assert callable(getattr(obj, name))


def _rows(path) -> int:
    return len(path.read_text().splitlines()) - 1  # minus the header


def _fitted_pipeline(tmp_path):
    """Synthesize train, calibration and test files and fit a model on them."""
    p = {name: str(tmp_path / name) for name in (
        "train.csv", "calib.csv", "test.csv", "model.adnd",
        "verdicts.csv", "alphas.csv", "baseline.csv")}
    for argv in (
        _synth_argv(p),
        ["synth", "--nodes", "12", "--edges", "40", "--seed", "2", "--out", p["calib.csv"]],
        ["synth", "--nodes", "15", "--edges", "30", "--anomalous", "6", "--seed", "3",
         "--out", p["test.csv"]],
        _fit_argv(p),
    ):
        assert cli.main(argv) == 0
    return p


def _synth_argv(p):
    return ["synth", "--nodes", "12", "--edges", "150", "--seed", "1", "--out", p["train.csv"]]


def _fit_argv(p):
    return ["fit", "--train", p["train.csv"], "--model", p["model.adnd"], "--kh", "4",
            "--ka", "2", "--kb", "2", "--max-sweeps", "5"]


def _scoring_argvs(p, tmp_path):
    """The commands that read a fitted model or score edges, in pipeline order."""
    return [
        ["detect", "--model", p["model.adnd"], "--calib", p["calib.csv"],
         "--test", p["test.csv"], "--out", p["verdicts.csv"]],
        ["score", "--model", p["model.adnd"], "--edges", p["test.csv"],
         "--out", p["alphas.csv"]],
        ["rhss", "--train", p["train.csv"], "--test", p["test.csv"],
         "--out", p["baseline.csv"]],
        ["eval", "--scores", p["verdicts.csv"], "--labels", p["test.csv"],
         "--out-prefix", str(tmp_path / "run")],
    ]


def test_traced_commands_report_per_edge_figures(tmp_path):
    p = _fitted_pipeline(tmp_path)
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer, "edgeanomaly", -adnd.LOG_FLOOR)
    try:
        assert installed.absent == []
        for argv in _scoring_argvs(p, tmp_path):
            span = tracer.begin("cli." + argv[0])  # the root span run.py opens
            try:
                assert cli.main(argv) == 0
            finally:
                tracer.end(span)
    finally:
        installed.remove()

    metrics = tracing.layer_metrics(tracer)
    for name in ("conformal.score_us_per_edge", "conformal.unseen_share",
                 "conformal.floor_share", "rhss.score_us_per_edge",
                 "evaluation.curves_ms"):
        assert name in metrics, f"traced run reports no {name}"
    calib_rows = _rows(tmp_path / "calib.csv")
    test_rows = _rows(tmp_path / "test.csv")
    assert metrics["conformal.edges_scored"] == calib_rows + 2 * test_rows


def test_traced_fit_reports_per_sweep_figures(tmp_path):
    train, model = str(tmp_path / "train.csv"), str(tmp_path / "model.adnd")
    assert cli.main(["synth", "--nodes", "12", "--edges", "150", "--seed", "1",
                     "--out", train]) == 0
    sweeps = 4
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer, "edgeanomaly", -adnd.LOG_FLOOR)
    try:
        span = tracer.begin("cli.fit")  # the root span run.py opens
        try:
            # a tolerance too small to stop early, as the benchmark's fit uses
            assert cli.main(["fit", "--train", train, "--model", model, "--kh", "4",
                             "--ka", "2", "--kb", "2", "--max-sweeps", str(sweeps),
                             "--rel-tol", "1e-300"]) == 0
        finally:
            tracer.end(span)
    finally:
        installed.remove()

    metrics = tracing.layer_metrics(tracer)
    for name in ("adnd.doc_update_ms", "adnd.corpus_update_ms", "adnd.elbo_ms"):
        assert name in metrics, f"traced fit reports no {name}"
    assert metrics["adnd.sweeps"] == sweeps
    per_block = {name: sum(1 for s in tracer.spans if s.name == name) for name in (
        "adnd.update_document_level", "adnd.update_corpus_level", "adnd.compute_elbo")}
    assert set(per_block.values()) == {sweeps}, per_block


def test_traced_ingest_reports_rows_read_and_build_time(tmp_path):
    # rows_read is the length of each reader result, so a reader that returns
    # a lazy or differently sized result shows up here
    p = _fitted_pipeline(tmp_path)
    rhss_argv = _scoring_argvs(p, tmp_path)[2]
    assert rhss_argv[0] == "rhss"
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer, "edgeanomaly", -adnd.LOG_FLOOR)
    try:
        for argv in (_fit_argv(p), rhss_argv):
            span = tracer.begin("cli." + argv[0])  # the root span run.py opens
            try:
                assert cli.main(argv) == 0
            finally:
                tracer.end(span)
    finally:
        installed.remove()

    metrics = tracing.layer_metrics(tracer)
    # fit and rhss each read train.csv; rhss also reads test.csv
    train_rows, test_rows = _rows(tmp_path / "train.csv"), _rows(tmp_path / "test.csv")
    assert metrics["graph_core.rows_read"] == 2 * train_rows + test_rows
    assert metrics["rhss.build_s"] > 0.0
    assert metrics["graph_core.read_s"] > 0.0 and metrics["graph_core.intern_s"] > 0.0


# The benchmark's setup_s times a cold import of the CLI. Only fit and
# fpr-sim need scipy's special functions, so everything else must leave them
# unloaded. Only fpr-sim's worker pool needs multiprocessing. No command
# needs scipy's sparse matrices.
_FIT_ONLY = ("scipy.special",)
_POOL_ONLY = ("multiprocessing",)
_NEVER = ("scipy.sparse",)
# The pool's executor module. scipy.special loads it too (through
# numpy.testing, on numpy 2.4), so it is watched only until a fit.
_UNTIL_FIT = ("concurrent.futures",)
_AFTER_FIT = _FIT_ONLY + _POOL_ONLY + _NEVER
_WATCHED = _AFTER_FIT + _UNTIL_FIT

# Runs each argv list given as JSON through cli.main in this one interpreter,
# then prints which of the named modules got loaded as its last line.
_RUN_COMMANDS = """
import json, sys
from edgeanomaly import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} exited non-zero")
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


def _fresh_python(*args):
    """Run python with src/ on the path; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_after(argvs, watched=_WATCHED):
    return _fresh_python("-c", _RUN_COMMANDS, json.dumps(argvs), json.dumps(watched))


def test_cold_cli_import_leaves_scipy_sparse_unloaded():
    for module in ("edgeanomaly.cli", "edgeanomaly"):
        code = (f"import json, sys, {module}; "
                f"print(json.dumps([m for m in {list(_WATCHED)!r} if m in sys.modules]))")
        assert _fresh_python("-c", code) == [], f"import {module} loads them"


def test_scoring_commands_leave_fit_modules_unloaded(tmp_path):
    p = _fitted_pipeline(tmp_path)
    assert _loaded_after([_synth_argv(p)] + _scoring_argvs(p, tmp_path)) == []


def test_fit_loads_fit_modules(tmp_path):
    # the control: the subprocess check above can see these imports at all
    p = {"train.csv": str(tmp_path / "train.csv"), "model.adnd": str(tmp_path / "model.adnd")}
    assert _loaded_after([_synth_argv(p), _fit_argv(p)], _AFTER_FIT) == list(_FIT_ONLY)


def test_no_command_loads_scipy_sparse(tmp_path):
    p = _fitted_pipeline(tmp_path)
    fpr_sim = ["fpr-sim", "--nodes", "8", "--n-train", "40", "--n-calib", "40",
               "--n-test", "10", "--trials", "2", "--max-sweeps", "5", "--kh", "4",
               "--ka", "2", "--kb", "2", "--out", str(tmp_path / "fpr.csv")]
    argvs = [_synth_argv(p), _fit_argv(p)] + _scoring_argvs(p, tmp_path) + [fpr_sim]
    pooled = list(_POOL_ONLY) if evaluation.trial_workers(2) > 1 else []
    assert _loaded_after(argvs, _AFTER_FIT) == list(_FIT_ONLY) + pooled
