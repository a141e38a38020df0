"""``src/qpakit`` stays within ROADMAP's line budget: new code pays for itself out of it."""
from pathlib import Path

LINE_BUDGET = 2890


def test_src_stays_within_the_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "qpakit"
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py"))}
    total = sum(lines.values())
    per_file = ", ".join(f"{name} {n}" for name, n in lines.items())
    assert total <= LINE_BUDGET, \
        f"src/qpakit/*.py has {total} lines, over ROADMAP's line budget of {LINE_BUDGET}: {per_file}"
