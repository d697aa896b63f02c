"""Outside-in span tracing of the hypertrees layers.

The program has no tracing of its own, so this module wraps the public
functions of each layer module, and the ``Series`` operators, while one
CLI command runs in the same process.  Every call records a span (name,
start, end, parent) and some exact counts; names imported elsewhere by
name, such as ``funceq.revert`` or ``cli.compute_C``, are patched too,
and every patched name is restored afterwards.

A span's self time is its duration minus the part of it that its child
spans cover.  A name's total time adds the durations of its outermost
spans only, so recursion is not counted twice.

Run as a script it executes one traced command and writes the summary:

    PYTHONPATH=src python3 perfbench/tracing.py --out trace.json -- table --max-n 8
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    """Spans kept in flat arrays, with a stack giving each span its parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_of]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize_spans(names, start, end, parent) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (outermost spans) and ``self_s``."""
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        lo, hi = start[i], end[i]
        covered = _union_length(
            [(max(start[k], lo), min(end[k], hi)) for k in kids.get(i, ())]
        )
        stats = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += hi - lo - covered
        p = parent[i]
        while p >= 0 and names[p] != name:
            p = parent[p]
        if p < 0:
            stats["total_s"] += hi - lo
    return out


# -- wrappers -------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer.counts, result)
        return result

    return functools.update_wrapper(wrapper, fn)


def _timed_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each step of a generator; count the items it yields."""

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            span = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            tracer.counts[name + ".items"] += 1
            yield item

    return functools.update_wrapper(wrapper, fn)


def _series_mul(tracer: Tracer, fn: Callable, series_cls: type) -> Callable:
    """Series x Series products and scalar products as two span names."""

    def wrapper(self, other):
        if not isinstance(other, series_cls):
            span = tracer.open("series.mul_scalar")
            try:
                return fn(self, other)
            finally:
                tracer.close(span)
        pairs = self.n_terms * other.n_terms
        span = tracer.open("series.mul")
        try:
            result = fn(self, other)
        finally:
            tracer.close(span)
        tracer.counts["series.mul.term_pairs"] += pairs
        tracer.counts["series.mul.out_terms"] += result.n_terms
        return result

    return functools.update_wrapper(wrapper, fn)


def _count_c_terms(counts, result) -> None:
    counts["gf.compute_C.out_terms"] += result.n_terms


def _count_assignments(counts, row) -> None:
    counts["hypergraphs.assignments"] += row.total


# (span name, module, attribute, kind, count hook)
PLAN = (
    ("series.mul", "hypertrees.series", "Series.__mul__", "mul", None),
    ("series.add", "hypertrees.series", "Series.__add__", "call", None),
    ("series.exp", "hypertrees.series", "Series.exp", "call", None),
    ("series.log", "hypertrees.series", "Series.log", "call", None),
    ("series.inverse", "hypertrees.series", "Series.inverse", "call", None),
    ("series.substitute", "hypertrees.series", "Series.substitute", "call", None),
    ("series.revert", "hypertrees.series", "revert", "call", None),
    ("gf.compute_C", "hypertrees.gf", "compute_C", "call", _count_c_terms),
    ("gf.verify_identities", "hypertrees.gf", "verify_identities", "call", None),
    ("gf.solve_R_fixed_point", "hypertrees.gf", "solve_R_fixed_point", "call", None),
    ("gf.count_by_profile", "hypertrees.gf", "count_by_profile", "call", None),
    ("funceq.lhs_series", "hypertrees.funceq", "lhs_series", "call", None),
    ("funceq.psi_from_phi", "hypertrees.funceq", "psi_from_phi", "call", None),
    ("funceq.substituted_connected_gf", "hypertrees.funceq",
     "substituted_connected_gf", "call", None),
    ("funceq.hypertree_dictionary_report", "hypertrees.funceq",
     "hypertree_dictionary_report", "call", None),
    ("hypergraphs.count_profile", "hypertrees.hypergraphs", "count_profile", "call",
     _count_assignments),
    ("combinat.partitions", "hypertrees.combinat", "partitions", "generator", None),
)


def _package_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hypertrees" or name.startswith("hypertrees."))
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every PLAN target, including by-name imports; restore on exit."""
    importlib.import_module("hypertrees.cli")  # binds every by-name import
    series_cls = importlib.import_module("hypertrees.series").Series
    restore: list[tuple[object, str, object]] = []
    try:
        for span, module_name, attr, kind, after in PLAN:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[method]
                if kind == "mul":
                    wrapped = _series_mul(tracer, orig, series_cls)
                else:
                    wrapped = _timed(tracer, span, orig, after)
                restore.append((cls, method, orig))
                setattr(cls, method, wrapped)
                continue
            orig = getattr(module, attr)
            if kind == "generator":
                wrapped = _timed_generator(tracer, span, orig)
            else:
                wrapped = _timed(tracer, span, orig, after)
            for mod in _package_modules():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        restore.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        yield
    finally:
        for owner, name, orig in reversed(restore):
            setattr(owner, name, orig)


# -- per-layer metrics ------------------------------------------------------------

PER_LAYER_UNITS = {
    "series.mul.calls": "count",
    "series.mul.term_pairs": "count",
    "series.mul.out_terms": "count",
    "series.mul.pair_yield": "ratio",
    "series.mul.self_s": "s",
    "series.mul_scalar.calls": "count",
    "series.add.calls": "count",
    "series.add.self_s": "s",
    "series.exp.calls": "count",
    "series.exp.self_s": "s",
    "series.log.calls": "count",
    "series.log.self_s": "s",
    "series.inverse.calls": "count",
    "series.inverse.self_s": "s",
    "series.substitute.calls": "count",
    "series.substitute.self_s": "s",
    "series.revert.calls": "count",
    "series.revert.self_s": "s",
    "gf.compute_C.total_s": "s",
    "gf.compute_C.out_terms": "count",
    "gf.verify_identities.total_s": "s",
    "gf.solve_R_fixed_point.total_s": "s",
    "gf.count_by_profile.calls": "count",
    "gf.count_by_profile.self_s": "s",
    "funceq.lhs_series.calls": "count",
    "funceq.lhs_series.total_s": "s",
    "funceq.psi_from_phi.total_s": "s",
    "funceq.substituted_connected_gf.total_s": "s",
    "funceq.hypertree_dictionary_report.total_s": "s",
    "hypergraphs.count_profile.calls": "count",
    "hypergraphs.count_profile.total_s": "s",
    "hypergraphs.assignments": "count",
    "hypergraphs.assignments_per_s": "1/s",
    "combinat.partitions.items": "count",
    "combinat.partitions.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_values(summary: dict) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``; 0 where a layer did not run."""
    spans, counts = summary["spans"], summary["counts"]
    out: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "total_s", "self_s"):
            out[metric] = spans.get(base, {}).get(field, 0)
        else:
            out[metric] = counts.get(metric, 0)
    pairs = out["series.mul.term_pairs"]
    out["series.mul.pair_yield"] = out["series.mul.out_terms"] / pairs if pairs else 0.0
    busy = out["hypergraphs.count_profile.total_s"]
    out["hypergraphs.assignments_per_s"] = out["hypergraphs.assignments"] / busy if busy else 0.0
    out.pop("trace.overhead_s", None)
    return out


def trace_cli(cli_args: list[str]) -> dict:
    """Run one CLI command in this process under the tracer; return its summary."""
    from hypertrees import cli
    from hypertrees.hypergraphs import kernel_name

    tracer = Tracer()
    exit_code = 0
    with installed(tracer):
        span = tracer.open("cli")
        try:
            cli.main.main(args=cli_args, prog_name="hypertrees")
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            tracer.close(span)
            sys.stdout.flush()
    finished = perf_counter()
    summary = {
        "exit_code": exit_code,
        "kernel": kernel_name(),
        "spans": summarize_spans(tracer.span_names(), tracer.start, tracer.end, tracer.parent),
        "counts": dict(tracer.counts),
        "span_count": len(tracer.start),
    }
    # the traced process spends this after the command; it is not tracing overhead
    summary["post_s"] = perf_counter() - finished
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one hypertrees command under the tracer.")
    parser.add_argument("--out", required=True, help="where to write the JSON summary")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    summary = trace_cli(cli_args)
    Path(args.out).write_text(json.dumps(summary), encoding="utf-8")
    return summary["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
