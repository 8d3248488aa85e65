"""Fixtures shared by several test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def benchmark_workloads():
    """perfbench/workloads.py, whose seeded streams give the benchmark inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
