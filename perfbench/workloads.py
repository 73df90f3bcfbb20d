"""The benchmark's workloads: how each makes its inputs and which commands it runs.

Every workload runs the same command sequence, the README walkthrough
steps 4-9: fit, detect, score, rhss, eval and fpr-sim. The workloads differ
in the generated input files and in the sizes passed to fit and fpr-sim.

- small_null: README steps 1-9 at README sizes, inputs from the package
  sampler. About 95% of the run is fpr-sim's 50 tiny fits, so per-call
  overhead dominates; this is the paper's own false positive validation.
- wide_fit: 100k training edges over ~5,000 distinct nodes. The fit
  dominates; everything sized by the vocabulary W (topics, model file,
  rhss history) is large while scoring does little.
- detect_stream: 20k training edges over ~2,000 nodes, 15k calibration
  and 18k test edges. Per-edge scoring in detect and score dominates; the
  fit is a small share. (Calibration and test are 3/5 of the 25k and 30k
  first planned, so that two passes fit a run even when the shared machine
  runs slow.)

small_null keeps the README's own input files for every seed (sampler seed
100); the workload seed changes the fit, smoothing and fpr-sim seeds, and so
every fpr-sim trial. Drawing the files from the seed as well would make the
figures measure the draw: over seeds 0-11 the final ELBO per training edge
ranges from 0.4 to 3.4 nats, because the sampler's node distribution is a
Dirichlet(1) draw over 30 nodes. Its walkthrough steps 4-8 take under half
a second, so a pass repeats them (`repeats`) to get enough samples.

The `fit` command gets a fixed sweep budget (`--max-sweeps` with a relative
tolerance too small to stop earlier). Converged fits of these inputs take
anywhere from 58 to 200 sweeps depending on the seed, which would make
`fit_s` measure the seed rather than the code. `neg_elbo_per_edge` then
shows any change in what a sweep achieves.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import generator

EPSILON = 0.05
FPR_EPSILONS = (0.01, 0.05, 0.1, 0.2)
FIT_REL_TOL = "1e-12"

# README sizes for the package sampler; see make_small_null_inputs.
SMALL_NODES = 30
SMALL_POOL = 893
SMALL_TEST_NULL = 167
SMALL_TEST_ANOMALOUS = 140

# fpr-sim trials at README sizes: 363 training, 363 calibration and 40 test
# edges each, over SMALL_NODES nodes.
FPR_TEST_EDGES = 40
FPR_SPLITS = ("--n-train", "363", "--n-calib", "363", "--n-test", str(FPR_TEST_EDGES))


@dataclass(frozen=True)
class Workload:
    name: str
    fit_sweeps: int
    fpr_trials: int
    fpr_sweeps: int | None = None
    repeats: int = 1
    stream: generator.StreamShape | None = None
    sizes: dict = field(default_factory=dict)

    def make_inputs(self, workdir: Path, seed: int, cli_main) -> None:
        """Write train.csv, calib.csv and test.csv for `seed` into `workdir`."""
        if self.stream is None:
            make_small_null_inputs(workdir, cli_main)
        else:
            generator.make_stream_inputs(workdir, seed, self.stream, **self.sizes)

    def commands(self, workdir: Path, seed: int) -> list[tuple[str, list[str]]]:
        """One pass as (command, argv) pairs: steps 4-8 `repeats` times, then fpr-sim."""
        p = {name: str(workdir / name) for name in (
            "train.csv", "calib.csv", "test.csv", "model.adnd", "verdicts.csv",
            "alphas.csv", "baseline.csv", "run", "fpr.csv")}
        fpr_argv = [
            "fpr-sim", "--nodes", str(SMALL_NODES), *FPR_SPLITS,
            "--trials", str(self.fpr_trials), "--epsilons", ",".join(map(str, FPR_EPSILONS)),
            "--seed", str(seed + 1), "--out", p["fpr.csv"],
        ]
        if self.fpr_sweeps is not None:
            fpr_argv += ["--max-sweeps", str(self.fpr_sweeps), "--rel-tol", FIT_REL_TOL]
        walkthrough = [
            ("fit", ["fit", "--train", p["train.csv"], "--model", p["model.adnd"],
                     "--seed", str(seed), "--max-sweeps", str(self.fit_sweeps),
                     "--rel-tol", FIT_REL_TOL]),
            ("detect", ["detect", "--model", p["model.adnd"], "--calib", p["calib.csv"],
                        "--test", p["test.csv"], "--epsilon", str(EPSILON),
                        "--orientation", "power-corrected", "--seed", str(seed + 1),
                        "--out", p["verdicts.csv"]]),
            ("score", ["score", "--model", p["model.adnd"], "--edges", p["test.csv"],
                       "--out", p["alphas.csv"]]),
            ("rhss", ["rhss", "--train", p["train.csv"], "--test", p["test.csv"],
                      "--out", p["baseline.csv"]]),
            ("eval", ["eval", "--scores", p["verdicts.csv"], "--labels", p["test.csv"],
                      "--out-prefix", p["run"]]),
        ]
        return walkthrough * self.repeats + [("fpr-sim", fpr_argv)]


def make_small_null_inputs(workdir: Path, cli_main) -> None:
    """README steps 1-3 with the package sampler, exactly as the README runs them.

    The pool and the test set's null rows share sampler seed 100 and the
    anomalous rows use seed 101, whatever the workload seed (see above).
    """
    synth_seed = "100"
    pool = workdir / "pool.csv"
    for argv in (
        ["synth", "--nodes", str(SMALL_NODES), "--edges", str(SMALL_POOL),
         "--seed", synth_seed, "--out", str(pool)],
        ["synth", "--nodes", str(SMALL_NODES), "--edges", str(SMALL_TEST_NULL),
         "--anomalous", str(SMALL_TEST_ANOMALOUS), "--seed", synth_seed,
         "--out", str(workdir / "test.csv")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"input generation failed: edgeanomaly {' '.join(argv)}")
    header, *rows = pool.read_text(encoding="utf-8").splitlines(keepends=True)
    head = (len(rows) + 1) // 2
    (workdir / "train.csv").write_text(header + "".join(rows[:head]), encoding="utf-8")
    (workdir / "calib.csv").write_text(header + "".join(rows[head:]), encoding="utf-8")
    pool.unlink()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_null",
            fit_sweeps=100,
            fpr_trials=50,
            repeats=3,
        ),
        Workload(
            name="wide_fit",
            fit_sweeps=6,
            fpr_trials=10,
            fpr_sweeps=50,
            stream=generator.StreamShape(nodes=5000),
            sizes=dict(n_train=100_000, n_calib=1_000, n_null=1_000, n_anomalous=500),
        ),
        Workload(
            name="detect_stream",
            fit_sweeps=6,
            fpr_trials=10,
            fpr_sweeps=50,
            stream=generator.StreamShape(nodes=2000),
            sizes=dict(n_train=20_000, n_calib=15_000, n_null=15_000, n_anomalous=3_000),
        ),
    )
}
