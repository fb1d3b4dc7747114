"""RL006 negative fixture: module-level cell functions pickle fine."""
from repro.experiments.runner import run_cells


def double_cell(value):
    return value * 2


def fan_out(cells):
    return run_cells(double_cell, cells)
