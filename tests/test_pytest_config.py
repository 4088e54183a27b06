"""The repository's pytest configuration still reports a failing property."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=50)
@given(st.integers())
def test_fails_past_four(n):
    assert n < 5
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    path = tmp_path / "test_failing_property.py"
    path.write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
