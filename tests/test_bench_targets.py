"""The benchmark's traced targets still name callables of the package.

``bench/run.py`` times every ``module.function`` in its ``TARGETS``; one that
no longer resolves would break the traced run, so the list is read here (as
text, without importing the benchmark) and each name is looked up.
"""

import ast
import importlib
import os

import pytest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py")


def bench_targets():
    with open(RUN, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TARGETS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS in {RUN}")


@pytest.mark.parametrize("target", bench_targets())
def test_bench_target_resolves_to_a_callable(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"alma.{module}"), name))
