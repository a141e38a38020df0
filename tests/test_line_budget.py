"""``src/qpakit`` stays within ROADMAP's line budget: new code pays for itself out of it."""
from pathlib import Path

LINE_BUDGET = 2977


def test_src_stays_within_the_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "qpakit"
    total = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    assert total <= LINE_BUDGET, f"src/qpakit/*.py has {total} lines, over ROADMAP's line budget of {LINE_BUDGET}"
