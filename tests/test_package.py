"""Package surface: every public name in `src/` has a caller outside the tests."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: public names that wait for a caller, with the ROADMAP item that brings it
AWAITING_CALLER = {
    "classifier.saddle_exponents": "item 1: the predicted Floquet exponent",
    "eco.lyapunov_value": "item 8: monotone along the mu = 0 excursions",
    "eco.lyapunov_rate": "item 8: monotone along the mu = 0 excursions",
}


def _referenced_names() -> set[str]:
    """Every identifier read as a name, an attribute or an import in the
    package, the scripts and the benchmark."""
    names: set[str] = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    """Code only the tests use belongs in tests/oracles.py, or nowhere."""
    used = _referenced_names()
    unused = []
    for path in sorted((ROOT / "src" / "hybridhopf").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in used
            ):
                unused.append(f"{path.stem}.{node.name}")
    assert sorted(unused) == sorted(AWAITING_CALLER)
