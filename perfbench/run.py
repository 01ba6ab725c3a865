#!/usr/bin/env python3
"""Build the ft-coma benchmark from source and run it.

    python3 perfbench/run.py --workload <paper16|chaos_mix|traced16> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(`perfbench/Cargo.toml`) built against the repository's crates by path, so
it fails to build, and exits non-zero without a result, when those crates
are absent. Cargo's target directory is `$CARGO_TARGET_DIR`, or
`.bench_build` at the repository root when that is unset. All other
arguments go to the benchmark binary unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "ftcoma-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
