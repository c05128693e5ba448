"""Building the program and the probe, running commands, fingerprinting."""

import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

# Everything the benchmark writes lives under this directory of the
# checkout (ignored by git and, for its leading underscore, by dune).
WORK = os.path.join("perfbench", "_work")
SOURCES = ("dune-project", os.path.join("bin", "weakord.ml"), "lib")


class Missing(Exception):
    """The checkout lacks the program's sources."""


def nproc():
    return len(os.sched_getaffinity(0))


def _dune(args, root):
    # The shared dune cache lives outside the checkout; keep builds inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", root] + args, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise SystemExit("perfbench: dune build failed in %s" % root)


def build(root="."):
    """Build weakord from the checkout's sources, and the probe against a
    copy of lib/ in the benchmark's workspace.  Returns both paths."""
    for p in SOURCES:
        if not os.path.exists(os.path.join(root, p)):
            raise Missing(p)
    _dune(["bin/weakord.exe"], root)
    src = os.path.join(root, WORK, "src")
    os.makedirs(src, exist_ok=True)
    for name, from_ in (("lib", "lib"), ("probe", os.path.join("perfbench", "_probe"))):
        dst = os.path.join(src, name)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(os.path.join(root, from_), dst)
    shutil.copy(os.path.join(root, "dune-project"), src)
    _dune(["./probe/probe.exe"], src)
    return (os.path.abspath(os.path.join(root, "_build", "default", "bin", "weakord.exe")),
            os.path.abspath(os.path.join(src, "_build", "default", "probe", "probe.exe")))


class Ran:
    """A finished command: exit code, wall seconds, peak RSS, output, and
    whether it was killed at its time limit."""

    def __init__(self, code, wall_s, rss_mb, out, err, cut):
        self.code, self.wall_s, self.rss_mb = code, wall_s, rss_mb
        self.out, self.err, self.cut = out, err, cut


def adopt_orphans():
    """Become the reaper of this process's orphaned descendants, so the
    children of a command killed at its time limit can be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def run(cmd, out_dir, timeout, cwd=None):
    """Run [cmd] in a process group of its own, with its output in files
    under [out_dir]; report its own peak RSS (wait4), not the benchmark's.
    After [timeout] seconds the whole group is killed and waited for."""
    os.makedirs(out_dir, exist_ok=True)
    out_p, err_p = os.path.join(out_dir, "stdout"), os.path.join(out_dir, "stderr")
    with open(out_p, "wb") as o, open(err_p, "wb") as e:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=o, stderr=e, cwd=cwd, start_new_session=True)
        cut = threading.Event()
        killer = threading.Timer(timeout, lambda: (cut.set(), kill_group(p.pid)))
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if cut.is_set():
        reap_group(p.pid)
    with open(out_p, errors="replace") as o, open(err_p, errors="replace") as e:
        return Ran(p.returncode, wall, ru.ru_maxrss / 1024.0, o.read(), e.read(), cut.is_set())


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_group(pgid):
    """Wait for the killed group's remaining members, adopted through
    adopt_orphans."""
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def fingerprint(probe, root="."):
    env = subprocess.run([probe, "env"], stdout=subprocess.PIPE, text=True).stdout.split()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha1()
    for top in ("bin", "lib"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                with open(os.path.join(d, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "nproc": nproc(),
        "recommended_domain_count": int(env[0]) if env else None,
        "ocaml": env[1] if len(env) > 1 else None,
        "git_commit": commit or "none (not a git checkout)",
        "source_sha1": digest.hexdigest(),
    }
