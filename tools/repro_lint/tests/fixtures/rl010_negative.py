"""Fixture: picklable run_cells payloads (no RL010 findings)."""
import threading

from repro.experiments.runner import run_cells


def work(a, b):
    return a + b


def dispatch(cells):
    guard = threading.Lock()
    with guard:
        prepared = [tuple(cell) for cell in cells]
    return run_cells(work, prepared)
