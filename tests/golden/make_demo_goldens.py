"""Write tests/golden/demos/<name>.txt, the exact stdout of each demo.

Each demo in demos/ runs as its own script in a fresh interpreter, the
way `tests/test_cli.py::test_demo_runs` runs it, and its stdout is
written beside this script.  The test compares the bytes.  Regenerate
only when a change means to alter what a demo prints, and name each
changed demo and the reason with the change.  Run from the repository
root:

    PYTHONPATH=src python3 tests/golden/make_demo_goldens.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "demos"


def demo_stdout(demo: Path) -> str:
    """Stdout of one demo run with the package on the path; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return proc.stdout


def main():
    GOLDEN.mkdir(exist_ok=True)
    demos = sorted((ROOT / "demos").glob("*.py"))
    for demo in demos:
        (GOLDEN / f"{demo.stem}.txt").write_text(demo_stdout(demo))
    print(f"{len(demos)} demos -> {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
