#!/usr/bin/env python3
"""Build the costar CLI and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload bigdoc|corpus|oneshot --seed N \
        --seconds S --trace 0|1 [--corrupt-expected]

Run from the root of a checkout.  Everything the run builds or writes
goes under .perfbench/ there.  The benchmark's result is the last line
of standard output; build output goes to standard error.
"""

import glob
import os
import pwd
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(STATE, "build")
# Each run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def opam_switches():
    """Switch prefixes to try, most specific first: the active switch,
    then the opam root's default switch, then any other switch."""
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        yield prefix
    roots = [os.environ.get("OPAMROOT"), os.path.expanduser("~/.opam"),
             os.path.join(pwd.getpwuid(os.getuid()).pw_dir, ".opam")]
    for root in filter(None, roots):
        names = [os.environ.get("OPAMSWITCH")]
        try:
            with open(os.path.join(root, "config")) as f:
                for line in f:
                    if line.startswith("switch:"):
                        names.append(line.split(":", 1)[1].strip().strip('"'))
        except OSError:
            pass
        for name in filter(None, names):
            yield os.path.join(root, name)
        yield from sorted(os.path.dirname(os.path.dirname(d))
                          for d in glob.glob(os.path.join(root, "*", "bin", "dune")))


def toolchain_env():
    """The environment to build in: the caller's when dune is on its PATH,
    else the caller's with an opam switch's tools first on PATH.  A run
    started without the opam environment still builds."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH", os.defpath)):
        return env
    for prefix in opam_switches():
        bindir = os.path.join(prefix, "bin")
        if os.access(os.path.join(bindir, "dune"), os.X_OK):
            env.update(
                PATH=os.pathsep.join([bindir, env.get("PATH", os.defpath)]),
                OPAM_SWITCH_PREFIX=prefix)
            return env
    sys.exit("perfbench: dune not found on PATH or in an opam switch")


def main():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s: not a costar checkout" % ROOT)
    env = toolchain_env()
    # Keep dune's own state inside the checkout too.
    env["DUNE_CACHE_ROOT"] = os.path.join(STATE, "dune-cache")
    os.makedirs(STATE, exist_ok=True)
    dune = shutil.which("dune", path=env["PATH"])
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD,
         "--profile", "release", "./bin/costar.exe", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(BUILD, "default", "perfbench", "main.exe")
    costar = os.path.join(BUILD, "default", "bin", "costar.exe")
    cmd = [exe, *sys.argv[1:], "--costar", costar,
           "--work", os.path.join(STATE, "work")]
    # Own process group, so that a timeout, or this script being stopped,
    # stops the CLI children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: stopped"))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
