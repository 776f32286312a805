"""Run the mutation suite: every mutant in mutants.json must be killed.

Each mutant of the table names a file, an exact source text that occurs
once in it, the text that replaces it, a reason, and a pytest selector.
The runner copies src/ and tests/ to a temporary directory, with the two
files the tests read beside them (README.md and bench/oracles.json). Per
mutant it checks that the selector passes on the unmutated copy and fails
on the mutated one, and prints killed or survived with the wall time of
the mutated run. A mutant whose text does not occur exactly once, or whose
selector fails unmutated, is reported as broken.

    python tools/mutants.py

Exit status 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("mutants.json")
# what the tests need of the repository
COPIED = ("src", "tests", "README.md", "bench/oracles.json")


def _passes(tree, selector):
    """(whether the selector passes in tree, wall time in s). No bytecode
    is written, so a mutated file of the same size and mtime can never be
    read from a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         selector], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode
    return code == 0, time.perf_counter() - started


def run(mutants, tree):
    """The verdict of each mutant: killed, survived or broken, with the
    wall time of its mutated run."""
    clean = {}
    for m in mutants:
        path = tree / m["file"]
        text = path.read_text()
        started = time.perf_counter()
        if text.count(m["find"]) != 1:
            verdict, seconds = "broken (text not found exactly once)", 0.0
        else:
            if m["selector"] not in clean:
                clean[m["selector"]] = _passes(tree, m["selector"])[0]
            if not clean[m["selector"]]:
                verdict = "broken (selector fails unmutated)"
                seconds = time.perf_counter() - started
            else:
                path.write_text(text.replace(m["find"], m["replace"]))
                try:
                    passed, seconds = _passes(tree, m["selector"])
                finally:
                    path.write_text(text)
                verdict = "survived" if passed else "killed"
        print(f"{verdict:<8} {seconds:6.2f} s  {m['name']}: {m['reason']}",
              flush=True)
        yield verdict


def main():
    mutants = json.loads(TABLE.read_text())
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, tree / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                (tree / part).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(ROOT / part, tree / part)
        verdicts = list(run(mutants, tree))
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} mutants killed in "
          f"{time.perf_counter() - started:.1f} s")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
