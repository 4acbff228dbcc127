import subprocess
import sys
from pathlib import Path

import pytest

_PRELUDE = f"""\
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})


def heavy():
    # which of the two heavy runtime dependencies this process has loaded
    return sorted({{m.split(".")[0] for m in sys.modules}} & {{"scipy", "requests"}})
"""


@pytest.fixture
def fresh_python():
    """Run code in a fresh interpreter that imports icsr from src/ and
    return its stdout: for checks that must not see the modules this test
    process has already imported.  The code can call heavy() for the
    sorted list of scipy and requests, whichever are loaded."""
    def run(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", _PRELUDE + code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
