"""The digest of every answer and refusal of three benchmark sweep plans (``scripts/answer_digest.py``)."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "answer_digest.py"
_spec = importlib.util.spec_from_file_location("answer_digest", _SCRIPT)
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)

# sha256 of the 1800 lines of the exact_sweep plans of seeds 3101-3103: 1450
# answers and 350 refusals at the 4300-digit string limit
_SWEEP_SHA256 = "6f4a22baf500e062f49e6a441ad4c867d126d0744f9e6d10cfd8e44ff838473e"


def test_every_answer_and_refusal_of_the_sweep_plans_is_pinned():
    lines = list(answer_digest.answer_lines())
    assert len(lines) == 1800
    assert sum("\trefused=" in line for line in lines) == 350
    assert answer_digest.answer_digest(lines) == _SWEEP_SHA256
