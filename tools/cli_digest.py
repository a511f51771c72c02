"""Digest of the logsob command line's output over a fixed command list.

    python3 tools/cli_digest.py
    python3 tools/cli_digest.py --show K

Imports ``logsob`` from the ``src/`` of the checkout this file sits in and
runs every command of :data:`COMMANDS` in-process through
``logsob.cli.main``.  It prints one sha256 per command and one over all of
them.  A command's digest covers its exit code, its stdout, the ``error``
field of its stderr manifest and the file written by ``--emit-paths``
(into a temporary directory).  An exception that escapes ``main`` is
recorded by its type in place of the exit code.  Run it on two checkouts
and compare the lines to see which commands changed their output; the
manifest's timings are not digested.  The first line names the Python and
numpy versions.  ``tools/cli_digest.txt`` holds the committed output,
which ``tests/test_digests.py`` compares line by line:

    python3 tools/cli_digest.py > tools/cli_digest.txt

With ``--show K`` it runs only command K (the index on its digest line)
and prints the command, its exit status, its manifest error and its
stdout, to see which digits of a moved line changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from logsob import cli  # noqa: E402

PERTURBATIONS = ("perturbation=identity", "perturbation=arctan eps=0.3",
                 "perturbation=arctan eps=5")
POTENTIALS = ("family=gaussian rho=1", "family=gaussian rho=0.5", "family=subbotin alpha=4",
              "family=subbotin alpha=3", "family=subbotin alpha=1000",
              "family=double_well beta=0.2")
SDE = ("--paths", "20000", "--seed", "7")


def _commands() -> list:
    cmds = [["sweep", "--family", "quadric", "--dims", "1:64"]]
    for beta in ("0", "0.05", "0.25", "0.45"):
        cmds.append(["sweep", "--family", "double_well", "--dims", "1:32", "--beta", beta])
    for pot in POTENTIALS:
        for d in (1, 2, 8):
            for pert in PERTURBATIONS:
                cmds.append(["bound", "--potential", f"{pot} dim={d}", "--perturbation", pert])
    cmds += [
        ["bound", "--potential", "family=subbotin alpha=1000 dim=2",
         "--perturbation", "perturbation=arctan eps=0.3", "--method", "fk"],
        ["certify", "--family", "quadric", "--eps", "0.25", "--dim", "8"],
        ["certify", "--family", "quadric", "--eps", "2", "--dim", "1"],
        ["certify", "--family", "double_well", "--eps", "0.4", "--dim", "4", "--beta", "0.25"],
    ]
    for pot in ("family=subbotin alpha=4 dim=1", "family=subbotin alpha=4 dim=2",
                "family=double_well beta=0.25 dim=1", "family=gaussian rho=1 dim=2"):
        cmds.append(["verify", "--check", "audit", "--potential", pot,
                     "--perturbation", "perturbation=identity", "--paths", "5000", "--seed", "3"])
    cmds += [
        ["verify", "--check", "martingale", "--potential", "family=subbotin alpha=4 dim=2",
         "--perturbation", "perturbation=arctan eps=0.4", "--dt", "0.001", "--t", "0.04", *SDE],
        ["verify", "--check", "monotone", "--potential", "family=subbotin alpha=4 dim=1",
         "--perturbation", "perturbation=arctan eps=0.5", "--f", "one-plus-tanh",
         "--dt", "0.01", "--t", "0.5", *SDE],
        ["verify", "--check", "representation", "--potential", "family=gaussian rho=1 dim=2",
         "--perturbation", "perturbation=arctan eps=0.3", "--x0", "0.8,-0.6",
         "--dt", "0.01", "--t", "0.1", *SDE],
        ["verify", "--check", "representation", "--potential", "family=subbotin alpha=4 dim=1",
         "--perturbation", "perturbation=arctan eps=0.5", "--f", "tanh", "--x0", "0.3",
         "--dt", "0.01", "--t", "0.25", *SDE],
        ["simulate", "--potential", "family=subbotin alpha=4 dim=2",
         "--perturbation", "perturbation=arctan eps=0.4", "--x0", "0,0",
         "--dt", "0.01", "--t", "0.1", *SDE],
        ["simulate", "--potential", "family=subbotin alpha=4 dim=2",
         "--perturbation", "perturbation=arctan eps=0.4", "--x0", "0,0",
         "--dt", "0.01", "--t", "0.1", *SDE, "--emit-paths", "{tmp}/paths.csv"],
        ["simulate", "--potential", "family=double_well beta=0.25 dim=8",
         "--perturbation", "perturbation=identity", "--x0", ",".join(["0.1"] * 8),
         "--dt", "0.002", "--t", "0.01", "--paths", "2000", "--seed", "5",
         "--emit-paths", "{tmp}/paths8.csv"],
        ["sample", "--potential", "family=double_well beta=0.25 dim=1", "-n", "2000"],
        ["sample", "--potential", "family=subbotin alpha=4 dim=2", "-n", "2000", "--seed", "4"],
        ["sample", "--potential", "family=subbotin alpha=4 dim=2", "-n", "1000",
         "--method", "mala", "--seed", "4"],
    ]
    for pot, pert in (("family=gaussian rho=abc dim=1", "perturbation=identity"),
                      ("family=gaussian rho=1 dim=1", "perturbation=arctan eps=x"),
                      ("family=gaussian rho=inf dim=1", "perturbation=identity"),
                      ("family=subbotin alpha=inf dim=2", "perturbation=identity"),
                      ("family=subbotin alpha=4 dim=2", "perturbation=arctan eps=inf"),
                      ("family=subbotin alpha=4 dim=2", "perturbation=arctan eps=1000")):
        cmds.append(["bound", "--potential", pot, "--perturbation", pert])
    for bad in (["--x0", "abc"], ["--t", "inf"]):
        cmds.append(["simulate", "--potential", "family=gaussian rho=1 dim=1",
                     "--perturbation", "perturbation=identity", *bad, "--paths", "10"])
    # checks on flagged estimates: about 1% of these paths diverge
    for check in ("monotone", "representation", "martingale"):
        cmds.append(["verify", "--check", check, "--potential", "family=subbotin alpha=4 dim=1",
                     "--perturbation", "perturbation=arctan eps=0.5", "--t", "3", "--dt", "0.3",
                     "--paths", "2000", "--seed", "47", "--f", "one-plus-tanh"])
    # one step: the only checkpoint is the horizon
    cmds.append(["verify", "--check", "martingale", "--potential", "family=subbotin alpha=4 dim=2",
                 "--perturbation", "perturbation=arctan eps=0.4", "--t", "1", "--dt", "1", *SDE])
    # each check reads only its own options: --f only representation and
    # monotone, the SDE options only the three path checks
    audit = ["verify", "--check", "audit", "--potential", "family=subbotin alpha=4 dim=1",
             "--perturbation", "perturbation=identity", "--paths", "5000", "--seed", "3"]
    cmds += [audit + ["--f", "nosuch"], audit + ["--t", "0.5", "--dt", "1"],
             ["verify", "--check", "martingale", "--potential", "family=subbotin alpha=4 dim=2",
              "--perturbation", "perturbation=arctan eps=0.4", "--dt", "0.001", "--t", "0.04",
              *SDE, "--f", "nosuch"],
             ["verify", "--check", "representation", "--potential", "family=gaussian rho=1 dim=1",
              "--perturbation", "perturbation=identity", "--f", "nosuch", "--paths", "100"]]
    # one sample is no evidence: the audit exits 1
    cmds.append(["verify", "--check", "audit", "--potential", "family=subbotin alpha=4 dim=1",
                 "--perturbation", "perturbation=arctan eps=0.3", "--paths", "1"])
    # fewer than two valid paths: simulate exits 1 rather than print "nan"
    cmds += [["simulate", "--potential", "family=subbotin alpha=4 dim=2",
              "--perturbation", "perturbation=identity", "--t", "1.8", "--dt", "0.9",
              "--paths", "50", "--seed", "43", "--x0", "50,-50"],
             ["simulate", "--potential", "family=gaussian rho=1 dim=1",
              "--perturbation", "perturbation=arctan eps=0.3", "--t", "0.1", "--dt", "0.01",
              "--paths", "1", "--seed", "3"]]
    # without --x0 the paths start at the origin of the potential's dimension
    cmds.append(["simulate", "--potential", "family=subbotin alpha=4 dim=2",
                 "--perturbation", "perturbation=arctan eps=0.4", "--dt", "0.01", "--t", "0.1",
                 *SDE])
    # MALA at the benchmark's shape, and a subbotin whose chains partly never
    # move, which exits 1
    cmds += [["sample", "--potential", "family=double_well beta=0.25 dim=2", "-n", "10000",
              "--method", "mala", "--seed", "5"],
             ["sample", "--potential", "family=subbotin alpha=8 dim=8", "-n", "640",
              "--method", "mala", "--seed", "1"]]
    # a spec key given twice, a double well without beta, and an objective
    # that overflows at the radii of the closed-form check: all exit 1
    cmds += [["bound", "--potential", "family=gaussian rho=1 dim=2 dim=3",
              "--perturbation", "perturbation=identity"],
             ["bound", "--potential", "family=gaussian rho=1 dim=2",
              "--perturbation", "perturbation=arctan eps=0.3 eps=0.4"],
             ["certify", "--family", "double_well", "--eps", "0.4", "--dim", "4"],
             ["sweep", "--family", "double_well", "--dims", "1:3"],
             ["bound", "--potential", "family=gaussian rho=1e308 dim=2",
              "--perturbation", "perturbation=arctan eps=0.3", "--method", "fk"]]
    # a Holley-Stroock tilt whose fourth power passes the largest float: constant inf
    cmds.append(["bound", "--potential", "family=gaussian rho=1e4 dim=1",
                 "--perturbation", "perturbation=arctan eps=240", "--method", "hs"])
    # radial samples whose grids end at r_max = 4, 8, 32 and 2048, one of
    # them where V overflows to inf before the end
    for pot in ("family=gaussian rho=1 dim=64", "family=gaussian rho=1e-4 dim=2",
                "family=subbotin alpha=3 dim=8", "family=subbotin alpha=1000 dim=1",
                "family=double_well beta=0.45 dim=2"):
        cmds.append(["sample", "--potential", pot, "-n", "500", "--seed", "9"])
    return cmds


COMMANDS = _commands()


def run_one(argv: list, tmp: str) -> list:
    """The record of one command: its status, manifest error, stdout and
    the text of each file it wrote."""
    argv = [a.replace("{tmp}", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit {cli.main(argv)}"
        except Exception as exc:  # an escaping exception is part of the behaviour
            status = f"raised {type(exc).__name__}"
    manifest = next((ln for ln in reversed(err.getvalue().splitlines()) if ln.startswith("{")),
                    None)
    error = json.loads(manifest).get("error", "") if manifest else ""
    record = [status, error, out.getvalue()]
    for path in (a for a in argv if a.startswith(tmp)):
        p = Path(path)
        record.append(p.read_text() if p.exists() else "<missing>")
        if p.exists():
            p.unlink()
    return record


def main_digest() -> int:
    # the digests are pinned per Python and numpy version
    print(f"# python {platform.python_version()} numpy {np.__version__}")
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(COMMANDS):
            digest = hashlib.sha256("\n--\n".join(run_one(argv, tmp)).encode()).hexdigest()
            total.update(digest.encode())
            print(f"{digest}  {i:3d} {' '.join(argv)}", flush=True)
    print(f"{total.hexdigest()}  total ({len(COMMANDS)} commands)")
    return 0


def show(k: int) -> None:
    argv = COMMANDS[k]
    with tempfile.TemporaryDirectory() as tmp:
        status, error, out = run_one(argv, tmp)[:3]
    print(f"{k:3d} {' '.join(argv)}\n{status}\nerror: {error or '(none)'}\n-- stdout\n{out}",
          end="")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Digest of the logsob command line's output.")
    ap.add_argument("--show", type=int, metavar="K",
                    help="print command K's stdout and manifest error instead")
    args = ap.parse_args(argv)
    if args.show is None:
        return main_digest()
    if not 0 <= args.show < len(COMMANDS):
        ap.error(f"--show takes a command index from 0 to {len(COMMANDS) - 1}")
    show(args.show)
    return 0


if __name__ == "__main__":
    sys.exit(main())
