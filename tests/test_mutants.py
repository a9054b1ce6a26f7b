"""Every mutant of ``mutants.py`` is killed by the tests it names.

The package is copied into a temporary directory once, where the named
tests must pass.  Each mutant is then applied to the copy, its tests run in
their own interpreter, and its file is put back before the next one.  A
mutant is killed when pytest reports a failing test (exit status 1); a
collection error, a missing test id or a passing run leaves it alive.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dynel
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def _run(args, package_root: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(package_root), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.slow
def test_every_mutant_is_killed(tmp_path):
    package = tmp_path / "dynel"
    shutil.copytree(Path(dynel.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sources = {m.file: (package / m.file).read_text() for m in MUTANTS}
    unplaced = [f"{m.name}: {m.file} holds its text {sources[m.file].count(m.old)} times"
                for m in MUTANTS if sources[m.file].count(m.old) != 1]
    assert not unplaced, unplaced
    where = _run(["-c", "import dynel; print(dynel.__file__)"], tmp_path)
    assert Path(where.stdout.strip()).parent == package, where.stderr
    tests = sorted({test for m in MUTANTS for test in m.tests})
    clean = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider", *tests], tmp_path)
    assert clean.returncode == 0, clean.stdout[-2000:] + clean.stderr[-2000:]

    alive = []
    for m in MUTANTS:
        (package / m.file).write_text(sources[m.file].replace(m.old, m.new))
        try:
            run = _run(["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests],
                       tmp_path)
        finally:
            (package / m.file).write_text(sources[m.file])
        if run.returncode != 1:
            alive.append(f"{m.name}: exit {run.returncode}\n{run.stdout[-800:]}{run.stderr[-800:]}")
    assert not alive, "\n\n".join(alive)
