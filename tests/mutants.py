"""Mutation check of the proof checks: apply each mutant of a catalog to a
copy of the source tree, run the tests named to kill it, and list the
mutants that survive.

    python tests/mutants.py

The catalog, tests/mutants.json beside this script, is a JSON list of
entries {"id", "file", "old", "new", "kill"}: a short name, a file relative
to the repository root, one line of that file (compared without its
indentation, and found there exactly once), the line that replaces it
(given the old line's indentation), and the pytest node ids expected to
fail on the mutant.

The working tree is never written.  The tree is copied once to a temporary
directory; each mutant is applied to the copy and undone after its run.
The named tests must first pass on the unmutated copy, or no mutant is
run.  A mutant whose tests time out counts as killed.  Exits 0 when every
mutant is killed, and 1 when one survives, when an entry's line is not
found exactly once, or when the named tests fail unmutated.

Standard library only.  pytest does not collect this file (it is no
test_*.py), and it is not part of the tier-1 suite: each mutant costs one
pytest run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_out", ".bench_build",
                                     "*.egg-info")
CATALOG = Path(__file__).with_name("mutants.json")
RUN_TIMEOUT_S = 900


def pytest(tree: Path, node_ids) -> subprocess.CompletedProcess:
    """The node ids run on the tree's own source, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def mutated(text: str, old: str, new: str) -> str:
    """text with its one line that reads `old` (indentation aside) replaced by `new`, indented alike."""
    lines = text.splitlines(keepends=True)
    found = [i for i, line in enumerate(lines) if line.strip() == old.strip()]
    if len(found) != 1:
        raise LookupError(f"line found {len(found)} times, not once: {old.strip()!r}")
    line = lines[found[0]]
    indent = line[: len(line) - len(line.lstrip())]
    lines[found[0]] = indent + new.strip() + "\n"
    return "".join(lines)


def main() -> int:
    catalog = json.loads(CATALOG.read_text())
    workdir = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        tree = workdir / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        node_ids = list(dict.fromkeys(node for entry in catalog for node in entry["kill"]))
        baseline = pytest(tree, node_ids)
        if baseline.returncode != 0:
            print(f"the named tests fail on the unmutated tree:\n{baseline.stdout[-3000:]}", file=sys.stderr)
            return 1
        survivors, stale = [], []
        for entry in catalog:
            path = tree / entry["file"]
            original = path.read_text()
            try:
                path.write_text(mutated(original, entry["old"], entry["new"]))
            except LookupError as exc:
                stale.append(entry["id"])
                print(f"{entry['id']:<28} STALE     {exc}")
                continue
            try:
                run = pytest(tree, entry["kill"])
            except subprocess.TimeoutExpired:
                run = None
            finally:
                path.write_text(original)
            if run is None:
                verdict, summary = "killed", f"timed out after {RUN_TIMEOUT_S} s"
            else:
                verdict = "killed" if run.returncode != 0 else "SURVIVED"
                summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else f"exit {run.returncode}"
            if verdict == "SURVIVED":
                survivors.append(entry["id"])
            print(f"{entry['id']:<28} {verdict:<9} {summary}")
        print(f"{len(catalog)} mutants: {len(catalog) - len(survivors) - len(stale)} killed, "
              f"{len(survivors)} survived, {len(stale)} stale")
        print("survivors:", ", ".join(survivors) if survivors else "none")
        if stale:
            print("stale entries:", ", ".join(stale))
        return 1 if survivors or stale else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
