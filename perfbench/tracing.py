"""Outside-in tracing of the package's layers for the traced benchmark run.

The tracer replaces public functions of the package at the module
attributes through which they are called, records spans in memory, and puts
every original back when it is removed. No package source changes. A target
name that no longer exists is reported as absent rather than failing.

Per-edge functions (`nonconformity_score`, `rhss_score`) run tens of
thousands of times per command, so they are counted and summed instead of
getting one span per call. Their time still counts as child time of the
enclosing span, so a span's self time excludes it.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter

# (owner, attribute, span name). The owner is the module (or module.Class)
# whose attribute the caller looks up; the span name names the layer.
SPAN_TARGETS = (
    ("cli", "read_edge_records", "graph_core.read_edge_records"),
    ("cli", "corpus_from_pairs", "graph_core.corpus_from_pairs"),
    ("adnd", "fit", "adnd.fit"),
    ("evaluation", "fit", "adnd.fit"),
    ("adnd", "update_document_level", "adnd.update_document_level"),
    ("adnd", "update_corpus_level", "adnd.update_corpus_level"),
    ("adnd", "compute_elbo", "adnd.compute_elbo"),
    ("adnd", "save_model", "adnd.save_model"),
    ("adnd", "load_model", "adnd.load_model"),
    ("evaluation", "sample_edges", "adnd.sample_edges"),
    ("conformal", "calibration_scores", "conformal.calibration_scores"),
    ("evaluation", "calibration_scores", "conformal.calibration_scores"),
    ("conformal", "detect_corpus", "conformal.detect_corpus"),
    ("conformal", "conformal_p_values", "conformal.conformal_p_values"),
    ("evaluation", "conformal_p_values", "conformal.conformal_p_values"),
    ("rhss", "StreamHistory.from_corpus", "rhss.from_corpus"),
    ("evaluation", "fpr_simulation", "evaluation.fpr_simulation"),
    ("evaluation", "precision_recall_at_k", "evaluation.precision_recall_at_k"),
    ("evaluation", "roc_points", "evaluation.roc_points"),
    ("evaluation", "auc", "evaluation.auc"),
)

EDGE_TARGETS = (
    ("conformal", "nonconformity_score", "conformal.nonconformity_score"),
    ("evaluation", "nonconformity_score", "conformal.nonconformity_score"),
    ("rhss", "StreamHistory.rhss_score", "rhss.rhss_score"),
)

# Spans whose result size is recorded: the number of rows read.
SIZED = {"graph_core.read_edge_records": lambda result: len(result[0])}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    size: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


@dataclass
class EdgeCalls:
    """Calls of one per-edge function under one command."""

    calls: int = 0
    seconds: float = 0.0
    noted: int = 0
    unseen: int = 0
    floored: int = 0


@dataclass
class Tracer:
    """Spans and per-edge counts of one pass, in memory until written out."""

    spans: list = field(default_factory=list)
    open: list = field(default_factory=list)
    edges: dict = field(default_factory=dict)

    def begin(self, name: str) -> int:
        parent = self.open[-1] if self.open else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self.open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.seconds

    def root(self, index: int) -> int:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index

    def note_edge_call(self, name: str, seconds: float) -> EdgeCalls:
        """Count one per-edge call under the current command; returns its tally."""
        command = self.spans[self.open[0]].name if self.open else ""
        stats = self.edges.setdefault((name, command), EdgeCalls())
        stats.calls += 1
        stats.seconds += seconds
        if self.open:
            self.spans[self.open[-1]].child_s += seconds
        return stats


def _resolve(package: str, owner: str, attr: str):
    """(object holding the attribute, attribute name) or None when absent."""
    try:
        obj = importlib.import_module(f"{package}.{owner}")
    except ImportError:
        return None
    *classes, name = attr.split(".")
    for cls in classes:
        obj = getattr(obj, cls, None)
        if obj is None:
            return None
    return (obj, name) if name in vars(obj) else None


def _span_wrapper(tracer: Tracer, name: str, fn):
    sized = SIZED.get(name)

    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if sized is not None:
            tracer.spans[index].size = sized(result)
        return result

    return wrapper


def _edge_wrapper(tracer: Tracer, name: str, fn, floor_score: float):
    scoring = name == "conformal.nonconformity_score"

    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        stats = tracer.note_edge_call(name, perf_counter() - start)
        if scoring:
            try:
                unseen, edge = args[0].num_nodes, args[1]
                stats.unseen += edge.sender == unseen or edge.receiver == unseen
                stats.floored += result >= floor_score
                stats.noted += 1
            except (AttributeError, IndexError, TypeError):
                pass  # arguments of another shape: the shares are left out
        return result

    return wrapper


class Installed:
    """Wrappers in place for one traced pass; `remove` restores the originals."""

    def __init__(self, tracer: Tracer, package: str, floor_score: float,
                 span_targets=SPAN_TARGETS, edge_targets=EDGE_TARGETS):
        self.originals = []
        self.absent = []
        for targets, make in (
            (span_targets, lambda name, fn: _span_wrapper(tracer, name, fn)),
            (edge_targets, lambda name, fn: _edge_wrapper(tracer, name, fn, floor_score)),
        ):
            for owner, attr, name in targets:
                found = _resolve(package, owner, attr)
                if found is None:
                    self.absent.append(f"{owner}.{attr}")
                    continue
                obj, key = found
                raw = vars(obj)[key]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(make(name, raw.__func__))
                else:
                    wrapped = make(name, raw)
                self.originals.append((obj, key, raw))
                setattr(obj, key, wrapped)

    def remove(self) -> None:
        for obj, key, raw in reversed(self.originals):
            setattr(obj, key, raw)
        self.originals = []


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass; a figure whose spans are all
    absent is left out."""
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name):
        return sum(spans[i].seconds for i in by_name.get(name, ()))

    def under(name, command):
        return [spans[i] for i in by_name.get(name, ()) if spans[tracer.root(i)].name == command]

    out = {}
    if "graph_core.read_edge_records" in by_name:
        out["graph_core.read_s"] = total("graph_core.read_edge_records")
        out["graph_core.rows_read"] = sum(
            spans[i].size or 0 for i in by_name["graph_core.read_edge_records"]
        )
    if "graph_core.corpus_from_pairs" in by_name:
        out["graph_core.intern_s"] = total("graph_core.corpus_from_pairs")

    for metric, name in (
        ("adnd.doc_update_ms", "adnd.update_document_level"),
        ("adnd.corpus_update_ms", "adnd.update_corpus_level"),
        ("adnd.elbo_ms", "adnd.compute_elbo"),
    ):
        sweeps = under(name, "cli.fit")
        if sweeps:
            out[metric] = 1e3 * statistics.median(s.seconds for s in sweeps)
            if name == "adnd.update_document_level":
                out["adnd.sweeps"] = len(sweeps) / len(by_name["cli.fit"])
    for metric, name in (
        ("adnd.sample_s", "adnd.sample_edges"),
        ("adnd.save_s", "adnd.save_model"),
        ("adnd.load_s", "adnd.load_model"),
        ("rhss.build_s", "rhss.from_corpus"),
    ):
        if name in by_name:
            out[metric] = total(name)
    if "conformal.conformal_p_values" in by_name:
        out["conformal.pvalue_ms"] = 1e3 * total("conformal.conformal_p_values")

    scoring = [s for (name, _), s in tracer.edges.items() if name == "conformal.nonconformity_score"]
    if scoring:
        calls = sum(s.calls for s in scoring)
        out["conformal.edges_scored"] = calls
        out["conformal.score_us_per_edge"] = 1e6 * sum(s.seconds for s in scoring) / calls
        user = [s for (name, command), s in tracer.edges.items()
                if name == "conformal.nonconformity_score" and command in ("cli.detect", "cli.score")]
        noted = sum(s.noted for s in user)
        if noted:
            out["conformal.unseen_share"] = sum(s.unseen for s in user) / noted
            out["conformal.floor_share"] = sum(s.floored for s in user) / noted
    baseline = [s for (name, _), s in tracer.edges.items() if name == "rhss.rhss_score"]
    if baseline and sum(s.calls for s in baseline):
        out["rhss.score_us_per_edge"] = (
            1e6 * sum(s.seconds for s in baseline) / sum(s.calls for s in baseline)
        )

    curves = [n for n in ("evaluation.roc_points", "evaluation.auc",
                          "evaluation.precision_recall_at_k") if n in by_name]
    if curves:
        out["evaluation.curves_ms"] = 1e3 * sum(total(n) for n in curves)
    out["cli.self_s"] = sum(spans[i].self_s for i in range(len(spans)) if spans[i].parent < 0)
    return out


def trial_ms(tracer: Tracer) -> list[float]:
    """Duration of every fpr-sim trial in ms.

    A trial starts when fpr_simulation draws its corpus, so trial k runs from
    the k-th sample_edges call under fpr_simulation to the next one, and the
    last trial ends with fpr_simulation itself.
    """
    spans = tracer.spans
    out = []
    for i, sim in enumerate(spans):
        if sim.name != "evaluation.fpr_simulation":
            continue
        starts = [s.start for s in spans if s.parent == i and s.name == "adnd.sample_edges"]
        bounds = starts + [sim.end]
        out += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
    return out


def span_records(tracer: Tracer) -> list[list]:
    """Spans as compact [name, start, end, parent, self_s] rows for the result file."""
    return [[s.name, s.start, s.end, s.parent, s.self_s] for s in tracer.spans]
