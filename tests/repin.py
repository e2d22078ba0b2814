"""Re-pin the registry of pinned runs, `golden/pins.json`, from this tree.

Run from the checkout, with no options:

    python tests/repin.py

It replays every run the registry names, traced and under
`digests.wire_digest`, as `tests/test_pins.py` does. For each run whose pins
moved it prints the run's label and each moved pin, old -> new. For each run
whose trace pin moved it replays that run again from a `git worktree` of
HEAD, in a subprocess, and prints `digests.first_divergence` of the trace at
HEAD and the trace here, with each trace's count per line kind: the
paragraph a change that moves a trace hash writes into CHANGES.md. The
worktree is removed on exit, whether or not an error happened.

It rewrites only the moved trace and wire pins. A results pin says what the
consumers received, so a moved one is never re-pinned here: the script then
writes nothing, names the runs and exits 1, and the results pin is edited by
hand, with the reason.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # replay this checkout's source, not an installed copy
    sys.path.insert(0, str(ROOT / "src"))

from icncep.sim import data_path, load_scenario, override_scenario, run_scenario  # noqa: E402
from digests import first_divergence, results_digest, wire_digest  # noqa: E402

PINS = ROOT / "tests" / "golden" / "pins.json"
WORKLOADS = ("churn", "mesh")  # built by bench/workloads.py; the rest are shipped scenarios

# run in a worktree of HEAD: replay one run there and write its trace lines
HEAD_TRACE = """\
import sys, tempfile
sys.path[:0] = ["src", "tests"]
import repin
with tempfile.TemporaryDirectory() as tmp:
    sys.stdout.write("\\n".join(repin.replay(sys.argv[1], tmp)[0].trace))
"""


def bench_workloads():
    """`bench/workloads`, imported on first use.

    Importing it exits the process unless `icncep` came from this checkout's `src`.
    """
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads


def replay(label: str, workdir) -> tuple:
    """Replay one pinned run, traced; return its metrics and its wire digest.

    `q<n>/distributed` is the shipped scenario q<n> and `q<n>/centralized` the
    same re-targeted to the centralized preset; `<workload>/<seed>` is the
    benchmark's generated run, written into `workdir`.
    """
    name, arg = label.split("/")
    if name in WORKLOADS:
        (run,) = bench_workloads().build(name, int(arg), Path(workdir))
        spec = run.load()
    else:
        spec = load_scenario(str(data_path(name + ".scn")))
        if arg == "centralized":
            spec = override_scenario(spec, topology="centralized", mode=arg)
    with wire_digest() as digest:
        metrics = run_scenario(spec)
    return metrics, digest.hexdigest()


@contextmanager
def traces_at_head():
    """Yield `trace(label)`, the run's trace lines at HEAD.

    The first call adds a git worktree of HEAD; each call replays the run
    there in a subprocess. The worktree is removed on leaving the block.
    """
    tmp = Path(tempfile.mkdtemp(prefix="repin-"))
    tree = tmp / "head"

    def trace(label):
        if not tree.exists():
            _git("worktree", "add", "--detach", str(tree), "HEAD")
        done = subprocess.run(
            [sys.executable, "-c", HEAD_TRACE, label], cwd=tree, capture_output=True, text=True
        )
        if done.returncode:
            raise SystemExit("replaying %s at HEAD failed:\n%s" % (label, done.stderr))
        return done.stdout.splitlines()

    try:
        yield trace
    finally:
        if tree.exists():
            _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)


def _git(*args):
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True)


def _print_divergence(d):
    if d is None:
        print("  the trace at HEAD is the same: the pin was stale at HEAD already")
        return
    print("  traces part at line %d" % d["index"])
    for line in d["before"]:
        print("      %s" % line)
    print("    - %s" % d["a"])
    print("    + %s" % d["b"])
    for side, key in (("HEAD", "after_a"), ("here", "after_b")):
        for line in d[key]:
            print("    %s then: %s" % (side, line))
    for side, key in (("HEAD", "kinds_a"), ("here", "kinds_b")):
        kinds = " ".join("%s=%d" % kv for kv in sorted(d[key].items()))
        print("  line kinds %s: %s" % (side, kinds))


def main(path: Path = PINS, replay=replay, at_head=traces_at_head) -> int:
    """Replay every run in `path`, report moved pins and re-pin trace and wire; the exit code."""
    pins = json.loads(path.read_text())
    moved_results = []
    with tempfile.TemporaryDirectory() as tmp, at_head() as head_trace:
        for label, pinned in pins.items():
            metrics, wire = replay(label, Path(tmp, label.replace("/", "-")))
            now = {"trace": metrics.trace_hash, "wire": wire, "results": results_digest(metrics)}
            moved = [key for key in pinned if pinned[key] != now[key]]
            if not moved:
                continue
            print(label)
            for key in moved:
                print("  %s %s -> %s" % (key, pinned[key], now[key]))
            if "trace" in moved:
                _print_divergence(first_divergence(head_trace(label), metrics.trace))
            if "results" in moved:
                moved_results.append(label)
            pinned.update(trace=now["trace"], wire=now["wire"])
    if moved_results:
        print("results pins moved, nothing written: %s" % ", ".join(moved_results))
        print("edit these by hand in %s, with the reason" % path)
        return 1
    text = json.dumps(pins, indent=2) + "\n"
    if text == path.read_text():
        print("no pin moved")
    else:
        path.write_text(text)
        print("re-pinned %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
