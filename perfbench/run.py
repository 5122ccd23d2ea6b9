#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload splash_ci --seed 1 --seconds 20 --trace 0

It builds the Go benchmark in perfbench/ (its own module, which uses the
checkout's packages through a replace directive) into .bench_build/,
then runs it with the same arguments. Everything the build and the run
write stays under .bench_build/ in the checkout: the Go build cache,
temporary files, result records, spans and profiles. The benchmark's
last line of standard output is its JSON result; see
perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(os.path.join(here, "go.mod")):
        print("perfbench: run from the root of a checkout of the simulator", file=sys.stderr)
        return 1
    gocmd = shutil.which("go")
    if gocmd is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1

    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run([gocmd, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
