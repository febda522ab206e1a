"""Every settable value in src/ is accounted for.

A settable value is a parameter with a default, or a dataclass field that
`__init__` accepts with a default.  An AST census of src/dptco lists them,
and ALLOWED names, for each, the code outside the tests that relies on the
default: a call that omits the argument, or a JSON key that may be left
out.  A default that only tests use would be listed as open (None), and
none is left.  A new default fails test_every_default_is_listed until it
is listed here with its caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dptco"

# "module.qualname.parameter" -> the caller that uses the default, as
# "module.qualname", "module.name" for a module-level table, or
# "module.__main__" for a module's script block; None when only tests use it
ALLOWED = {
    "chain_ctrl.chain_control.out": "chain_ctrl.ChainAgents.derivatives",
    "cli.run_scenario.seed": "cli._sweep_one",
    "cli.run_scenario.guard_frac": "cli._sweep_one",
    # `python -m dptco.cli`; the `dptco` console script calls main() too
    "cli.main.argv": "cli.__main__",
    "generator.envelope_monitor.slack": "scenario._MONITORS",
    "generator.conservation_monitor.tol": "scenario._MONITORS",
    "scenario.Scenario.build.seed": "cli.cmd_verify",
    "scenario.Scenario.build.guard_frac": "cli.cmd_verify",
    # a solver key the scenario leaves out keeps its default
    "sim_engine.SolverSettings.method": "scenario._solver_settings",
    "sim_engine.SolverSettings.dt": "scenario._solver_settings",
    "sim_engine.SolverSettings.rel_tol": "scenario._solver_settings",
    "sim_engine.SolverSettings.abs_tol": "scenario._solver_settings",
    "sim_engine.SolverSettings.log_every": "scenario._solver_settings",
    "sim_engine.Trajectory.n_rejected": "cli.read_trajectory_csv",
    "sim_engine.Trajectory.n_rhs": "cli.read_trajectory_csv",
    "strictfb_ctrl._cascade.drive": "strictfb_ctrl.virtual_controls",
    "strictfb_ctrl.invariant_set_monitor.slack": "scenario._MONITORS",
    "timegain.GainFunction.base": "timegain.GainFunction.from_dict",
    "timegain.check_growth_criterion.coupling":
        "generator.check_generator_criterion",
}

# the defaults only tests use: none, and none may come back
OPEN_AT_MOST = 0


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
            and d.func.id == "dataclass")
        for d in node.decorator_list)


def _init_field(stmt: ast.AnnAssign) -> bool:
    """Whether a dataclass field with a value is an __init__ parameter:
    not a field(init=False)."""
    v = stmt.value
    if isinstance(v, ast.Call) and getattr(v.func, "id", None) == "field":
        return not any(k.arg == "init" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in v.keywords)
    return True


def census() -> tuple:
    """The settable values of src/dptco as "module.qualname.parameter",
    and every name ALLOWED may give as a caller: "module.qualname" of each
    function and class, "module.name" of each module-level assignment, and
    "module.__main__" of each module with a script block."""
    settable, names = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                names.add(qual)
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    pos = a.posonlyargs + a.args
                    with_default = pos[len(pos) - len(a.defaults):]
                    with_default += [k for k, d in zip(a.kwonlyargs,
                                                       a.kw_defaults)
                                     if d is not None]
                    settable.extend(f"{qual}.{arg.arg}"
                                    for arg in with_default)
                elif _is_dataclass(child):
                    settable.extend(f"{qual}.{s.target.id}"
                                    for s in child.body
                                    if isinstance(s, ast.AnnAssign)
                                    and s.value is not None
                                    and _init_field(s))
                visit(child, qual)
            elif isinstance(child, ast.Lambda) and child.args.defaults:
                settable.append(f"{prefix}.<lambda>")
            else:
                visit(child, prefix)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            for target in getattr(stmt, "targets", []):
                if isinstance(target, ast.Name):
                    names.add(f"{path.stem}.{target.id}")
            if (isinstance(stmt, ast.If)
                    and "__name__" in ast.unparse(stmt.test)):
                names.add(f"{path.stem}.__main__")
        visit(tree, path.stem)
    return settable, names


def test_every_default_is_listed():
    settable, _ = census()
    assert len(settable) == len(set(settable))
    new = sorted(set(settable) - set(ALLOWED))
    gone = sorted(set(ALLOWED) - set(settable))
    assert (new, gone) == ([], []), (
        "list each new default in ALLOWED with the non-test caller that "
        "uses it, and drop each deleted one")


def test_every_listed_caller_exists():
    _, names = census()
    assert sorted(c for c in ALLOWED.values()
                  if c is not None and c not in names) == []


def test_test_only_defaults_do_not_grow():
    assert sum(c is None for c in ALLOWED.values()) <= OPEN_AT_MOST
