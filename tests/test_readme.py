"""README.md's quick start runs and prints the values its comments document."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from ricci_spectrum.tolerances import EIGENVALUE_TOL

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _documented(block: str) -> dict:
    """Run the block; for each line with a comment, its source -> (value, comment).

    The value is the expression's for an expression line and the assigned
    object for an assignment.
    """
    namespace, documented = {}, {}
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        code, _, comment = lines[stmt.lineno - 1].partition("#")
        if comment:
            documented[code.strip()] = (value, comment.strip())
    return documented


def test_readme_quick_start_values(capsys):
    documented = _documented(_quick_start())

    kappa, comment = documented["ricci_curvature(pentagon, 0, 1).kappa"]
    shown, _, note = comment.partition(" -- ")
    assert note == "exact"
    assert type(kappa) is Fraction and kappa == eval(shown, {"Fraction": Fraction}) == 0

    lambda_1, comment = documented["spectrum(pentagon).lambda_1"]
    assert abs(lambda_1 - float(comment)) <= EIGENVALUE_TOL

    report, comment = documented["report = sandwich_bounds(pentagon, 4)"]
    assert comment == f"k[4] = {report.inputs['k_t']}" == "k[4] = 1/2"

    bounds, comment = documented["(report.lower, report.upper)"]
    digits = re.findall(r"(\d+\.\d+)\.\.\.", comment)
    assert len(digits) == 2
    assert all(str(value).startswith(shown) for value, shown in zip(bounds, digits))

    # the k_scan loop prints one row for each t in 1..6
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
