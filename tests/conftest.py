"""Fixtures shared by several test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


def _load_perfbench(name):
    """perfbench/<name>.py, loaded as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def benchmark_workloads():
    """perfbench/workloads.py, whose seeded streams give the benchmark inputs."""
    return _load_perfbench("workloads")


@pytest.fixture(scope="session")
def benchmark_spans():
    """perfbench/spans.py, whose TARGETS name the functions its traced run wraps."""
    return _load_perfbench("spans")
