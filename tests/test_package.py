"""Package-level structure: module boundaries and runtime dependencies."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from masterop.cli import OPTIONS, main
from masterop.funcdsl import FUNCTIONS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_no_module_imports_private_names_of_another():
    offenders = []
    for path in sorted((SRC / "masterop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def test_import_does_not_load_scipy():
    # nor does a run: the frozen windows' incomplete gamma function is a
    # table of masterop's own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = ("import sys, masterop\n"
           "print('scipy' in sys.modules)\n"
           "for n in (1, 2, 3):\n"
           "    masterop.tail_functional(masterop.w_family(4, 1.0, 0.5, n=n), ([0.3] * n, 0.1),\n"
           "                             6.0, masterop.kernel_constants(n, 0.5), masterop.QuadSpec())\n"
           "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", run],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]


def test_readme_and_help_name_every_dsl_function():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    help_text = subprocess.run(
        [sys.executable, "-m", "masterop.cli", "--help"],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    readme = (ROOT / "README.md").read_text()
    for name in FUNCTIONS:
        assert re.search(rf"\b{name}\b", help_text), name
        assert re.search(rf"\b{name}\b", readme), name


def _flags_named(text):
    return {name for name in OPTIONS
            if re.search(rf"(?<![\w-]){re.escape('--' + name.replace('_', '-'))}\b", text)}


def test_readme_and_help_name_every_option_flag(capsys):
    readme = (ROOT / "README.md").read_text()
    named = set()
    for command in ("eval", "counterexample", "defect", "verify"):
        assert main([command, "--help"]) == 0
        help_flags = _flags_named(capsys.readouterr().out)
        # README lists each command's run options on a line of its own
        line = re.search(rf"^- `{command}`: (.*)$", readme, re.M)
        assert line and _flags_named(line.group(1)) == help_flags, command
        named |= help_flags
    assert named == set(OPTIONS)


def test_readme_names_every_package_export():
    init = ast.parse((SRC / "masterop" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(init)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    readme = (ROOT / "README.md").read_text()
    assert names and [name for name in names if f"`{name}`" not in readme] == []


def test_parabolic_geometry_is_defined_in_regions_only():
    definers, imports = [], set()
    for path in sorted((SRC / "masterop").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definers += [path.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "check_scale"]
        if path.name == "regions.py":
            imports = {node.module for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       and (node.level > 0 or node.module.startswith("masterop"))}
            imports |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                        for alias in node.names if alias.name.startswith("masterop")}
    assert definers == ["regions.py"]
    assert imports == {"kernel"}


def _referrers(name):
    """The top-level definitions of the package (file:name) whose code names ``name``."""
    found = set()
    for path in sorted((SRC / "masterop").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.alias) and name in (node.name, node.asname)):
                    found.add(f"{path.name}:{owner}")
    return found


def test_gauss_legendre_nodes_are_mapped_in_gl_panel_only():
    # every panel rule comes from gl_panel; angular_rule takes the bare
    # rule on (-1, 1), and the cached bump moment keeps its own fixed rule
    assert _referrers("_leg_base") == {"quadrature.py:gl_panel", "quadrature.py:angular_rule"}
    assert _referrers("leggauss") == {"quadrature.py:_leg_base", "families.py:_bump_moment"}


def test_shell_spacing_rule_has_one_definition():
    # the panel count of a shell comes from _shell_panels, computed once in
    # _shell_values for its grouping key and handed to the rule it then
    # builds, and once for the K9 panels of a frozen window; every
    # equal-panel Gauss-Legendre radial rule, the n = 2 radial average's on
    # (0, 1) too, is built by radial_nodes
    assert _referrers("_shell_panels") == {"quadrature.py:_shell_values",
                                           "quadrature.py:_frozen_window"}
    assert _referrers("radial_nodes") == {"quadrature.py:_shell_values", "quadrature.py:shell_rule",
                                          "quadrature.py:_radial_sums"}
    assert _referrers("shell_rule") == {"quadrature.py:_shell_values"}


def test_window_mesh_has_one_home():
    # every window integral, finite or infinite, halves its panels in v = 1/a
    # on graded_time_mesh, the mesh of the difference panels in a
    quadrature = {r for name in ("geomspace", "_log_mesh", "_PANELS_PER_DECADE")
                  for r in _referrers(name) if r.startswith("quadrature.py:")}
    assert quadrature == set()
    assert _referrers("graded_time_mesh") == {"quadrature.py:_graded_panels",
                                              "quadrature.py:window_integral"}


def _module_level_names(tree):
    """(index of the top-level statement, name) for every name it defines."""
    for i, top in enumerate(tree.body):
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield i, top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            yield from ((i, node.id) for target in targets for node in ast.walk(target)
                        if isinstance(node, ast.Name))


def test_every_private_module_name_is_read():
    # a private function, class or constant at module level that no other
    # top-level statement of the package reads is dead: a deleted code path
    # must not leave its constant or helper behind.  A read counts for the
    # module that owns the name: a bare name for its own module, an
    # attribute or a relative import for the module it is taken from
    defined, readers = [], {}
    for path in sorted((SRC / "masterop").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, i, name) for i, name in _module_level_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        # the names `from . import x [as y]` binds to a sibling module
        modules = {alias.asname or alias.name: f"{alias.name}.py" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for alias in node.names}
        for i, top in enumerate(tree.body):
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    keys = [(path.name, node.id)]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    keys = [(modules[node.value.id], node.attr)]
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    keys = [(f"{node.module}.py", alias.name) for alias in node.names]
                else:
                    continue
                for key in keys:
                    readers.setdefault(key, set()).add((path.name, i))
    assert len(defined) > 50
    assert [f"{file}:{name}" for file, i, name in defined
            if not readers.get((file, name), set()) - {(file, i)}] == []


def test_panel_layout_has_one_home():
    # durations travel as adaptive_gl's (panels, 9) rows of K9 nodes, so no
    # function past the panel sums re-derives panels from runs of nodes; the
    # time rule and its G4 check are mapped where the rows are built, and the
    # infinite past's closing panel takes product weights on the K9 nodes; a
    # frozen window's angle takes K9 panels checked by G4, and its radial
    # rows weigh their angular checks by K9
    rows = {"quadrature.py:<module>", "quadrature.py:adaptive_gl",
            "quadrature.py:_difference_panels", "quadrature.py:_angle_rule"}
    assert _referrers("_K9") == rows | {"quadrature.py:_product_weights",
                                        "quadrature.py:_frozen_window"}
    assert _referrers("_G4") == rows
    assert _referrers("_GL_LO") == set()
    assert _referrers("reduceat") == set()


def test_frozen_past_is_read_by_the_window_only():
    # the declaration changes one thing in the quadrature: a finite shell
    # window takes the durations in the frozen past as one radial integral
    # against the kernel's closed-form time integral; every other integral
    # evaluates u at each duration, as for an undeclared handle, and the
    # time mesh no longer stops at the kernel's reach
    assert ({r for r in _referrers("frozen_until") if r.startswith("quadrature.py:")}
            == {"quadrature.py:window_uM_integral"})
    assert _referrers("_frozen_window") == {"quadrature.py:window_uM_integral"}
    assert _referrers("_frozen_kernel") == {"quadrature.py:_frozen_window"}
    tree = ast.parse((SRC / "masterop" / "quadrature.py").read_text())
    window = next(top for top in tree.body if getattr(top, "name", None) == "window_integral")
    assert "reach" not in {arg.arg for arg in window.args.args + window.args.kwonlyargs}


def test_hole_clip_has_one_home():
    # window_uM_integral starts every shell at u's declared hole, so no
    # caller passes SupportBox.inner as its r_lo (keyword or seventh argument)
    offenders = []
    for path in sorted((SRC / "masterop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and "window_uM_integral"
                    in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                continue
            r_lo = [kw.value for kw in node.keywords if kw.arg == "r_lo"] + node.args[6:7]
            offenders += [f"{path.name}:{node.lineno}" for arg in r_lo for sub in ast.walk(arg)
                          if isinstance(sub, ast.Attribute) and sub.attr == "inner"]
    assert offenders == []
    assert _referrers("window_uM_integral") >= {"defect.py:tail_functional",
                                                "operators.py:fractional_laplacian",
                                                "quadrature.py:integrate_difference"}


_STAGES = {"quadrature.py": {"adaptive_gl", "window_integral", "singular_integral",
                             "_difference_panels", "small_a_closure", "window_uM_integral",
                             "exterior_spatial_mass"},
           "defect.py": {"tail_functional"}}


def test_stages_return_quad_results_not_pairs():
    # a stage's error, flag and count travel up as one QuadResult, whose
    # arithmetic replaces the hand-paired (value, err) sums of its callers
    seen = set()
    for name, stages in _STAGES.items():
        tree = ast.parse((SRC / "masterop" / name).read_text(), filename=name)
        for top in tree.body:
            if getattr(top, "name", None) in stages:
                seen.add(top.name)
                pairs = [node.lineno for node in ast.walk(top) if isinstance(node, ast.Return)
                         and isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2]
                assert pairs == [], (name, top.name)
    assert seen == set().union(*_STAGES.values())
    # so a non-finite value is refused where a result is built, and a
    # non-finite panel where the panel sums are taken
    assert ({r for r in _referrers("NumericError") if r.startswith("quadrature.py:")}
            == {"quadrature.py:<module>", "quadrature.py:QuadResult", "quadrature.py:_panel_sums"})


def test_bessel_table_and_point_budget_have_one_home():
    # np.i0 only fits i0e's table, so no evaluation goes through its
    # piecewise Chebyshev loops; the point budget, set at module level, is
    # read only by in_blocks
    assert _referrers("i0") == {"quadrature.py:_i0e_table"}
    assert _referrers("_POINT_BUDGET") == {"quadrature.py:<module>", "quadrature.py:in_blocks"}


def test_shell_kernel_is_formed_in_one_helper():
    # the Funk-Hecke kernel serves the radial difference panels and the
    # shells; in the shells one nested helper forms it, and the tensor
    # kernel, for the one kind of block left: frozen durations take the
    # closed form outside the shells
    assert _referrers("_funk_hecke") == {"quadrature.py:_radial_sums", "quadrature.py:_shell_values"}
    tree = ast.parse((SRC / "masterop" / "quadrature.py").read_text())
    shell = next(top for top in tree.body if getattr(top, "name", None) == "_shell_values")
    nested = {}
    for node in ast.walk(shell):
        if isinstance(node, ast.FunctionDef) and node is not shell:
            nested.setdefault(node.name, []).append(node)

    def kernels(fn):
        return {id(node) for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id == "_funk_hecke"
                or isinstance(node, ast.Attribute) and node.attr == "exp"}

    (kern,) = nested["kern"]
    assert kernels(kern) and kernels(shell) == kernels(kern)
    assert len(nested["block"]) == 1
    assert all(any(isinstance(node, ast.Name) and node.id == "kern" for node in ast.walk(block))
               for block in nested["block"])
