"""Package surface: every public name in `src/` has a caller outside the
tests, every defaulted parameter of a public function is set by one, each
name has one import path, that of its own module, DF has one provider, one
runner falls back from Python floats to numpy scalars, one constructor
writes every model's ``rhs`` and ``jacobian``, and generated code compiles
only behind bounded caches."""
from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]

#: public names that wait for a caller, with the ROADMAP item that brings it
AWAITING_CALLER = {
    "classifier.saddle_exponents": "item 1: the predicted Floquet exponent",
    "eco.lyapunov_value": "item 8: monotone along the mu = 0 excursions",
    "eco.lyapunov_rate": "item 8: monotone along the mu = 0 excursions",
}


def _non_test_files() -> Iterator[Path]:
    """Every source file of the package, the scripts and the benchmark."""
    for top in ("src", "scripts", "perfbench"):
        yield from (ROOT / top).rglob("*.py")


def _non_test_nodes() -> Iterator[ast.AST]:
    """Every node of the package, the scripts and the benchmark."""
    for path in _non_test_files():
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _referenced_names() -> set[str]:
    """Every identifier read as a name, an attribute or an import outside the tests."""
    names: set[str] = set()
    for node in _non_test_nodes():
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


def _public_functions() -> Iterator[tuple[str, ast.FunctionDef, bool]]:
    """(qualified name, definition, is a method) of each public module-level
    function and each public method of a public class in `src/`."""
    for path in sorted((ROOT / "src" / "hybridhopf").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item, True


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call passes the parameter, by position or by keyword; a
    ``*args`` or ``**kwargs`` argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    by_position = position is not None and len(call.args) > position
    return by_position or any(k.arg == name for k in call.keywords)


def test_every_defaulted_parameter_is_set_by_a_caller_outside_the_tests():
    """README: a function takes a parameter only where some caller sets it.
    Calls are matched by the called name alone, so a call of another
    function of that name counts too."""
    calls: dict[str, list[ast.Call]] = {}
    for node in _non_test_nodes():
        if isinstance(node, ast.Call):
            called = node.func
            name = getattr(called, "id", None) or getattr(called, "attr", None)
            calls.setdefault(name, []).append(node)
    unset = []
    for qualified, fn, method in _public_functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(a.arg, i - method) for i, a in enumerate(positional) if i >= first]
        defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        for name, position in defaulted:
            if not any(_sets(call, position, name) for call in calls.get(fn.name, [])):
                unset.append(f"{qualified}({name})")
    assert unset == []


def test_package_init_holds_only_its_docstring_and_version():
    """Names are imported from their own modules; the package re-exports none."""
    body = ast.parse((ROOT / "src" / "hybridhopf" / "__init__.py").read_text(encoding="utf-8")).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    assert len(body) == 1, [ast.unparse(node) for node in body]
    (version,) = body
    assert isinstance(version, ast.Assign) and isinstance(version.value, ast.Constant)
    assert [ast.unparse(target) for target in version.targets] == ["__version__"]


def test_package_imports_name_only_modules():
    """`from hybridhopf import X` (`from . import X` inside the package)
    outside the tests names a module of the package or `__version__`, never
    a name in a module."""
    package = ROOT / "src" / "hybridhopf"
    allowed = {path.stem for path in package.glob("*.py")} - {"__init__"} | {"__version__"}
    strays = []
    for path in _non_test_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            absolute = node.level == 0 and node.module == "hybridhopf"
            relative = node.level == 1 and node.module is None and path.parent == package
            if absolute or relative:
                strays += [
                    f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name not in allowed
                ]
    assert strays == []


def test_models_is_the_one_derivative_provider():
    """Outside `models`, no module of the package reads a model's
    ``jacobian`` or ``linearization`` attribute or names
    `central_difference`: DF reaches the solvers only through
    `models.linearization_fn`, and `models` defines no second provider
    `jacobian_fn`."""
    strays = []
    for path in sorted((ROOT / "src" / "hybridhopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if path.name == "models.py":
                stray = name == "jacobian_fn"
            elif isinstance(node, ast.Attribute):
                stray = name in ("jacobian", "linearization", "central_difference")
            else:
                stray = name == "central_difference"
            if stray:
                strays.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert strays == []


#: what Python's float arithmetic raises where numpy scalars give inf or nan
_FLOAT_RAISES = {"ArithmeticError", "FloatingPointError", "OverflowError", "ZeroDivisionError"}


def test_one_runner_falls_back_from_python_floats_to_numpy_scalars():
    """`models._on_floats` is the one function in `src/` that names what
    Python floats raise and numpy's ``float64``: every evaluation that
    repeats its work on numpy scalars goes through it."""
    runners = []
    for path in sorted((ROOT / "src" / "hybridhopf").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(fn)}
                if names & _FLOAT_RAISES and "float64" in names:
                    runners.append(f"{path.stem}.{fn.name}")
    assert runners == ["models._on_floats"]


def test_both_model_kinds_get_rhs_and_jacobian_from_field_model():
    """`models.field_model` writes the ``rhs`` and ``jacobian`` of the
    predator-prey model and of every polynomial field, builtin or from a
    config: no model kind keeps a wrapper of its own."""
    from hybridhopf import models

    built = [
        models.builtin(
            "predator_prey", {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6}
        ),
        models.builtin("toy_cylindrical", {"beta2": 0.7, "beta5": -0.9, "gamma5": 0.8}),
        models.from_config({"polynomial": {"y1": [[1.0, 0, 1, 0, 0]], "y2": [[-1.0, 1, 0, 0, 0]], "z": []}}),
    ]
    for model in built:
        assert model.rhs.__qualname__ == "field_model.<locals>.rhs", model.name
        assert model.jacobian.__qualname__ == "field_model.<locals>.jacobian", model.name


def _bounded_cache(fn: ast.FunctionDef) -> bool:
    """Whether ``fn`` is decorated ``functools.lru_cache(maxsize=<int>)``."""
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "lru_cache"
        and any(k.arg == "maxsize" and type(getattr(k.value, "value", None)) is int for k in d.keywords)
        for d in fn.decorator_list
    )


def test_generated_code_is_compiled_only_behind_bounded_caches():
    """`compile(` and `exec(` appear in `src/` only in the polynomial kernel's
    and the field jet's compilers, each once per structure behind a bounded
    `functools.lru_cache`, so no call path compiles per evaluation."""
    found = []
    for path in sorted((ROOT / "src" / "hybridhopf").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {
            id(n) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("compile", "exec")
        }
        for fn in tree.body:
            inside = {id(n) for n in ast.walk(fn)} & calls if isinstance(fn, ast.FunctionDef) else set()
            if inside:
                found.append((f"{path.stem}.{fn.name}", len(inside), _bounded_cache(fn)))
            calls -= inside
        assert not calls, f"{path.name} compiles outside a top-level function"
    assert found == [("models._kernel", 2, True), ("models._program", 2, True)]
