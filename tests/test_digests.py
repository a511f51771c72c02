"""The golden digests: every command of ``tools/cli_digest.py`` and every
path batch of ``tools/sde_digest.py`` prints the line committed in
``tools/cli_digest.txt`` and ``tools/sde_digest.txt``.

A change that moves output bits on purpose regenerates both files in the
same commit (``python3 tools/<name>.py > tools/<name>.txt``) and lists the
changed lines in CHANGES.md.  The files pin the Python and numpy versions
they were made under; under other versions the test fails and names both.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DIGESTS = ("cli_digest", "sde_digest")


@pytest.fixture(scope="module")
def outputs():
    """stdout, stderr and exit code of each tool, each run in a fresh
    interpreter, both at once."""
    procs = {name: subprocess.Popen([sys.executable, str(TOOLS / f"{name}.py")],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name in DIGESTS}
    return {name: (*proc.communicate(), proc.returncode) for name, proc in procs.items()}


@pytest.mark.parametrize("name", DIGESTS)
def test_output_matches_the_golden_digest(name, outputs):
    out, err, code = outputs[name]
    assert code == 0, f"tools/{name}.py exited {code}:\n{err}"
    got = out.splitlines()
    want = (TOOLS / f"{name}.txt").read_text().splitlines()
    assert got[0] == want[0], (f"tools/{name}.txt was made under {want[0][2:]!r}, this run is "
                               f"{got[0][2:]!r}; regenerate it under this version and check "
                               f"the changed lines")
    got, want = _by_label(got), _by_label(want)
    moved = [label for label in {**want, **got} if got.get(label) != want.get(label)]
    assert not moved, (f"tools/{name}.py no longer prints the line of tools/{name}.txt for "
                       f"{len(moved)} entries:\n" + "\n".join(moved))


def _by_label(lines) -> dict:
    """Digest by command or batch; each line after the version line is
    "<sha256>  <index> <command or batch>"."""
    return {label: digest for digest, label in (ln.split("  ", 1) for ln in lines[1:])}
