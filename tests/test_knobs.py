"""The ``REPRO_*`` environment knobs cannot drift from their documentation:
every name the engine reads has a row in a README knob table, and CI sets
none that nothing reads."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def knobs_under(directory: str) -> set[str]:
    return {
        name
        for path in (ROOT / directory).rglob("*.py")
        for name in KNOB.findall(path.read_text())
    }


def test_knob_inventory():
    in_src = knobs_under("src")
    documented = set(re.findall(
        r"^\| `(REPRO_[A-Z_]+)` \|", (ROOT / "README.md").read_text(), re.M
    ))
    assert in_src == documented
    in_ci = set(KNOB.findall(
        (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    ))
    assert in_ci <= in_src | knobs_under("tests")
