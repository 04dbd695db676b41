"""Every CI gate script in ``scripts/`` imports cleanly.

The gates run end to end only in their own CI jobs.  Importing them here
(each guards ``main`` behind ``__main__``, so nothing starts) makes a
broken ``gatelib`` or perfbench harness import fail the tier-1 suite too.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GATES = sorted(SCRIPTS.glob("check_*.py"))


def test_all_eight_gates_are_found():
    assert len(GATES) == 8


@pytest.mark.parametrize("path", GATES, ids=lambda path: path.stem)
def test_gate_imports_without_running(path, monkeypatch):
    # The gates import gatelib from their own directory, and gatelib puts
    # perfbench on the path; both changes end with this test.
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])
    spec = importlib.util.spec_from_file_location(f"gate_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
