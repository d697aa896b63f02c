"""perfbench's tracer wraps layer functions by name: each name must still exist.

A renamed or deleted target makes every traced benchmark run fail, and
only a traced run would show it; this check fails in the unit tests first.
A name that still exists but is no longer called reads zero silently, so
the oracle route and the series, gf and funceq targets of the verify, psi
and table routes are also checked by counting their calls.

The package modules also keep their private names to themselves: no module
imports an underscore name from a sibling.
"""

import ast
import importlib
import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from hypertrees import hypergraphs
from hypertrees.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PHI_C00 = str(Path(__file__).parent / "data" / "phi-c00.json")


def _plan() -> tuple:
    # executed from its source text, so nothing is cached or written under perfbench/
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module.PLAN


@pytest.mark.parametrize("target", _plan(), ids=lambda target: target[0])
def test_tracer_plan_target_resolves(target):
    _, module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer reads class attributes through vars(), so inherited ones do not count
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, attr))


def test_oracle_sweep_routes_through_count_profile(monkeypatch):
    # the tracer's hypergraphs.count_profile span reads the oracle only while
    # the sweep still calls the module-level name, once per profile
    calls = []
    original = hypergraphs.count_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hypergraphs, "count_profile", counted)
    result = CliRunner().invoke(main, ["oracle", "--n", "4", "--max-magnitude", "3"])
    assert result.exit_code == 0
    profiles = list(hypergraphs.iter_profiles(3, max_size=4))
    assert len(result.output.splitlines()) == len(profiles)
    assert [profile for _, profile in calls] == profiles


_SERIES_OPS = {"series.mul", "series.add", "series.exp", "series.log", "series.inverse",
               "series.substitute", "series.revert"}

# the series, gf and funceq spans perfbench reads on each route
ROUTES = {
    "verify": (
        ["verify", "--t-max", "3", "--z-max", "3", "--trials", "1", "--sub-trials", "1"],
        _SERIES_OPS | {"gf.compute_C", "gf.verify_identities", "gf.solve_R_fixed_point",
                       "funceq.lhs_series", "funceq.psi_from_phi",
                       "funceq.substituted_connected_gf", "funceq.hypertree_dictionary_report"},
    ),
    "psi": (
        ["psi", PHI_C00, "--t-max", "3", "--z-max", "3"],
        _SERIES_OPS | {"funceq.lhs_series", "funceq.psi_from_phi"},
    ),
    "table": (["table", "--max-n", "4"], {"gf.count_by_profile"}),
}


def _count_calls(monkeypatch) -> Counter:
    """Count calls to every series, gf and funceq PLAN target, by-name imports included."""
    calls: Counter = Counter()

    def counted(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    for span, module_name, attr, _, _ in _plan():
        if span.split(".")[0] not in ("series", "gf", "funceq"):
            continue
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, method, counted(span, vars(cls)[method]))
            continue
        orig = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            # vars, not getattr: cli serves layer names through a hook and binds none
            if name.startswith("hypertrees") and vars(mod).get(attr) is orig:
                monkeypatch.setattr(mod, attr, counted(span, orig))
    return calls


@pytest.mark.parametrize("route", ROUTES)
def test_route_calls_every_layer_target_it_reads(monkeypatch, route):
    args, expected = ROUTES[route]
    calls = _count_calls(monkeypatch)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert {span for span in expected if not calls[span]} == set()


def test_every_layer_target_has_a_route():
    spans = {span for span, *_ in _plan() if span.split(".")[0] in ("series", "gf", "funceq")}
    routed = set().union(*(expected for _, expected in ROUTES.values()))
    assert spans == routed


def test_no_module_imports_a_private_name_from_a_sibling():
    # series.py alone knows the kernel's operand format, for one; dunder names are public
    imported = []
    for path in sorted((ROOT / "src" / "hypertrees").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hypertrees")
            ):
                imported += [(path.name, a.name) for a in node.names
                             if a.name.startswith("_") and not a.name.endswith("__")]
    assert imported == []


def test_only_the_cli_knows_the_report_format():
    # the math modules return plain data; cli.py alone turns it into JSON or text: no
    # other module imports json or click, defines as_dict, __str__ or a render_* function,
    # translates digits (the table's sub- and superscripts) or writes the " vs " of a
    # first difference
    importers, renderers = [], []
    for path in sorted((ROOT / "src" / "hypertrees").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                modules = []
            importers += [(path.name, m) for m in modules if m.split(".")[0] in ("json", "click")]
            if isinstance(node, ast.FunctionDef) and (
                node.name in ("as_dict", "__str__", "summary_lines")
                or node.name.startswith("render_")
            ):
                renderers.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Attribute) and node.attr in ("translate", "maketrans"):
                renderers.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Constant) and " vs " in str(node.value):
                renderers.append((path.name, node.lineno, node.value))
    assert importers == []
    assert renderers == []


def test_only_series_reads_the_term_store():
    # a series' keyed numerators, their common denominator and its graded operand
    # are series.py's own format; everything else, the test twins included, reads
    # terms() and coefficient()
    readers = []
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    for path in paths:
        if path == ROOT / "src" / "hypertrees" / "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_den", "_operand"):
                readers.append((path.name, node.lineno, node.attr))
    assert readers == []
