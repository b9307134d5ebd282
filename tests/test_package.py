"""Tests for the package layout: every module imports on its own, the
reduction's snapshot format is read in its own modules, no module reads
object identity or a per-visit trace, no public function hands back a
function it defines or only names arithmetic on its parameters, and the
benchmark's metric names match the package's."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lrmimo.flops import FlopCounter

SRC = Path(__file__).resolve().parents[1] / "src"


def src_nodes():
    """Each module's path and every node of its syntax tree."""
    for path in sorted((SRC / "lrmimo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path, node


def run_fresh(code: str) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("module", ["matcore", "reduction", "mimo", "detect", "flops",
                                    "simharness", "cli"])
def test_module_imports_in_a_fresh_interpreter(module):
    # The package root imports no module, so each one must pull in what it
    # needs; an import cycle between two modules shows up here.
    run_fresh(f"import lrmimo.{module}, lrmimo; assert lrmimo.__version__")


def test_cli_import_loads_no_process_pool():
    # Only a sweep with more than one worker starts a pool, so only that
    # branch may load the pool machinery.
    run_fresh("import sys, lrmimo.cli; "
              "loaded = {'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys(); "
              "assert not loaded, loaded")


def test_snapshot_format_is_read_only_where_it_is_kept():
    # A snapshot's columns and exponent are read in reduction alone, whose
    # factor_stacks turns them into arrays, and T's carried shift in
    # matcore, which keeps it, and reduction.
    owners = {"q_columns": {"reduction"}, "r_columns": {"reduction"},
              "exponent": {"reduction"},
              "shift_re": {"matcore", "reduction"}, "shift_im": {"matcore", "reduction"}}
    strays = {(path.name, node.attr, node.lineno) for path, node in src_nodes()
              if isinstance(node, ast.Attribute)
              and path.stem not in owners.get(node.attr, {path.stem})}
    assert not strays


def test_no_module_reads_object_identity_or_a_visit_trace():
    # Caps that share a snapshot share its index in the run's cap index, so
    # no module tells snapshots apart by identity; a run keeps counts of
    # its visits, and a trace of them is the tests' own.
    def stray(node) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "id"
        return isinstance(node, ast.Attribute) and node.attr in ("visits", "visit_swaps")

    assert not {(path.name, node.lineno) for path, node in src_nodes() if stray(node)}


def test_no_public_function_returns_a_function_it_defines():
    # Every caller calls a detector once per block, so a public function
    # takes all it needs and returns its result, not a prepared closure.
    def own_nodes(func):
        """The nodes of ``func``'s body outside the functions it defines."""
        stack = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def returns_its_own(func) -> bool:
        nodes = list(own_nodes(func))
        defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
        return any(isinstance(node, ast.Return) and (
            isinstance(node.value, ast.Lambda)
            or isinstance(node.value, ast.Name) and node.value.id in defined) for node in nodes)

    assert not {(path.name, node.name) for path, node in src_nodes()
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and returns_its_own(node)}


def test_no_public_function_is_only_arithmetic_on_its_parameters():
    # A public function whose body is one return of arithmetic on its own
    # parameters and literals (no call, attribute or subscript) names an
    # expression its callers can write themselves.
    def arithmetic_only(node, params) -> bool:
        if isinstance(node, ast.Name):
            return node.id in params
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            return all(arithmetic_only(child, params) for child in ast.iter_child_nodes(node)
                       if not isinstance(child, (ast.operator, ast.unaryop)))
        return isinstance(node, ast.Constant)

    def pass_through(func) -> bool:
        body = func.body[1:] if ast.get_docstring(func) is not None else func.body
        params = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
        return (len(body) == 1 and isinstance(body[0], ast.Return)
                and arithmetic_only(body[0].value, params))

    assert not {(path.name, node.name) for path, node in src_nodes()
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and pass_through(node)}


def test_benchmark_stage_flops_are_the_flop_counter_fields():
    # The benchmark's trace mode reports one stage.<field>.flops metric per
    # FlopCounter field, read by name; a field renamed, added or dropped
    # here must be renamed in BENCHMARK.json too.
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    stages = [m["name"].split(".")[1] for m in spec["per_layer"]
              if m["name"].startswith("stage.") and m["name"].endswith(".flops")]
    assert stages == [f.name for f in dataclasses.fields(FlopCounter)]
