#!/usr/bin/env python3
"""Builds the icecube benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build under the current directory);
traced runs write their spans under <target>/perfbench/. The last line
of standard output is the benchmark's JSON result, printed only when it
holds exactly the metrics BENCHMARK.json lists for the mode (end-to-end
untraced, per-layer traced) in their units; the exit code is the
binary's (0 when every output was correct), or 1 when the result does
not match the manifest.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--out", os.path.join(target, "perfbench")]
    try:
        run = subprocess.run(
            args, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode not in (0, 2):
        return run.returncode
    problem = check_manifest(lines[-1] if lines else "", arg("--trace") == "1")
    if problem:
        print(f"perfbench: result does not match BENCHMARK.json: {problem}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return run.returncode


def arg(flag: str) -> str:
    """The value given for `flag` on the command line, or ''."""
    argv = sys.argv[1:]
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else ""


def check_manifest(line: str, traced: bool) -> str:
    """What is wrong with the result line against BENCHMARK.json, or ''."""
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            manifest = json.load(f)
        result = json.loads(line)
    except (OSError, ValueError) as e:
        return str(e)
    listed = manifest["per_layer" if traced else "end_to_end"]
    want = [(m["name"], m["unit"]) for m in listed]
    got = [(name, m.get("unit")) for name, m in result.get("metrics", {}).items()]
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"missing {missing[:5]}, extra {extra[:5]}" if missing or extra else "order differs"
    return ""


if __name__ == "__main__":
    sys.exit(main())
