import os
from pathlib import Path

# pyproject's pythonpath puts src/ on this process's path; the CLI tests'
# child processes (python -m localprops) need it in their environment.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
