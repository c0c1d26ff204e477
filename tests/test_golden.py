"""Golden output digests: every engine x operator row, one ``run_pap`` per
problem, a tiny ``evaluate``, a ``compare`` of portfolios that share member
runs, a toy ``construct``, every problem's ``Problem.evaluate`` on a seeded
batch, every WFG problem's on Pareto-optimal rows, every problem's on
rows at the edges of its bounds, ``wfg_evaluate`` on rows at and just
above the WFG upper bounds, WFG1's on rows where its mixed shape is
corrected into [0, 1] and WFG5's on rows where ``_s_decept`` is corrected
into [0, 1] reproduce the bytes recorded in
``tests/golden_digests.json``, and the MOEA/D rows make the recorded
``Problem.evaluate`` calls and rows.  A change that alters outputs on
purpose rewrites the file with ``scripts/update_golden_digests.py`` in the
same commit."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("update_golden_digests",
                                               ROOT / "scripts" / "update_golden_digests.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_golden_digests():
    recorded = json.loads(golden.GOLDEN.read_text())
    assert recorded["numpy"] == np.__version__, (
        f"the golden digests were recorded with numpy {recorded['numpy']}, this is numpy "
        f"{np.__version__}; digests depend on the numpy build, so rerun "
        "scripts/update_golden_digests.py at the parent commit under this numpy and compare"
    )
    current = golden.compute()
    changed = [f"{section}/{key}" for section in ("engines", "run_pap", "construct", "moead_evaluate",
                                                     "problem_evaluate", "compare", "wfg_optimum",
                                                     "problem_evaluate_edge", "wfg_evaluate_upper",
                                                     "wfg_shape_mixed", "wfg_s_decept")
               for key in recorded[section] if recorded[section][key] != current[section].get(key)]
    assert not changed, "outputs or MOEA/D evaluate counts changed: " + ", ".join(changed)
    assert current["evaluate_results_csv"] == recorded["evaluate_results_csv"]
    assert current == recorded
