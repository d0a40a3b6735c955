"""The top-level exports still serve the benchmark's imports."""

import ast
import os

import gnssfix

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")


def test_benchmark_imports_resolve():
    tree = ast.parse(open(WORKLOADS, encoding="utf-8").read())
    names = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "gnssfix"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(gnssfix, name)] == []

