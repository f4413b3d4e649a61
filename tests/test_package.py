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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, masterop; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_readme_and_help_name_every_dsl_function():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    help_text = subprocess.run(
        [sys.executable, "-m", "masterop.cli", "--help"],
        env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    readme = (ROOT / "README.md").read_text()
    for name in FUNCTIONS:
        assert re.search(rf"\b{name}\b", help_text), name
        assert re.search(rf"\b{name}\b", readme), name


def test_readme_and_help_name_every_option_flag(capsys):
    readme = (ROOT / "README.md").read_text()
    for command in ("eval", "counterexample", "defect", "verify"):
        assert main([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        for name in OPTIONS:
            flag = re.escape("--" + name.replace("_", "-"))
            assert re.search(rf"(?<![\w-]){flag}\b", help_text), (command, flag)
            assert re.search(rf"(?<![\w-]){flag}\b", readme), flag


def test_readme_names_every_package_export():
    init = ast.parse((SRC / "masterop" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(init)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    readme = (ROOT / "README.md").read_text()
    assert names and [name for name in names if f"`{name}`" not in readme] == []
