import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SESSION = '''\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_after_the_failure():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    """Under this suite's settings a failing ``@given`` test is one failure with
    its example, not an INTERNALERROR that stops every later test.

    The INTERNALERROR needs libcst, which hypothesis does not depend on; where
    libcst is missing this test passes with or without the conftest import.
    """
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_session.py").write_text(_SESSION)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
