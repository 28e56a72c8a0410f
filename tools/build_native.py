#!/usr/bin/env python
"""Optionally compile the hot event-core modules with mypyc.

The native event core (arena-pooled events, pure-bucket bulk
scheduling, batch slot dispatch — see docs/performance.md) is pure
Python and fast enough to clear the CI floors on its own. This script
is the *optional* extra step: when mypyc is installed it compiles the
hot modules to C extensions in place, which CPython then prefers over
the .py files at import time. When mypyc is NOT installed — the
supported default; the repo never requires a compiler — the script
prints what it would have done and exits 0, so build pipelines can run
it unconditionally.

Usage:

    python tools/build_native.py            # compile if mypyc present
    python tools/build_native.py --check    # report status, change nothing
    python tools/build_native.py --clean    # remove compiled artifacts

``--clean`` returns the tree to pure-Python imports entirely.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: The profiler-identified hot modules, in dependency order. Kept
#: deliberately short: compiling rarely-hot modules buys nothing and
#: every entry is one more module that must stay mypyc-compatible.
HOT_MODULES = (
    "repro/netsim/arena.py",
    "repro/core/accounting.py",
)


def mypyc_available() -> bool:
    try:
        import mypyc  # noqa: F401
    except ImportError:
        return False
    return True


def compiled_artifacts() -> list[str]:
    """Existing compiled extensions/build dirs for the hot modules."""
    found = []
    for module in HOT_MODULES:
        stem = os.path.join(SRC, module[: -len(".py")])
        directory, name = os.path.split(stem)
        if not os.path.isdir(directory):
            continue
        for entry in os.listdir(directory):
            if entry.startswith(name + ".") and entry.endswith((".so", ".pyd")):
                found.append(os.path.join(directory, entry))
    build_dir = os.path.join(REPO_ROOT, "build")
    if os.path.isdir(build_dir):
        found.append(build_dir)
    return found


def clean() -> int:
    removed = compiled_artifacts()
    for path in removed:
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    print(f"removed {len(removed)} compiled artifact(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="report compiler/artifact status without building",
    )
    parser.add_argument(
        "--clean",
        action="store_true",
        help="remove compiled extensions and the build directory",
    )
    args = parser.parse_args(argv)

    if args.clean:
        return clean()

    available = mypyc_available()
    artifacts = compiled_artifacts()
    if args.check:
        print(f"mypyc available: {available}")
        print(f"hot modules: {', '.join(HOT_MODULES)}")
        print(f"compiled artifacts: {len(artifacts)}")
        return 0

    if not available:
        print(
            "mypyc is not installed; skipping the optional compiled core.\n"
            "The pure-Python native core is the supported default — "
            "install mypy (which ships mypyc) to enable this extra step."
        )
        return 0

    files = [os.path.join(SRC, module) for module in HOT_MODULES]
    missing = [f for f in files if not os.path.isfile(f)]
    if missing:
        print(f"hot modules missing: {missing}", file=sys.stderr)
        return 1
    result = subprocess.run(
        [sys.executable, "-m", "mypyc", *files],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    if result.returncode != 0:
        # A failed compile must never leave the tree half-native.
        clean()
        print("mypyc build failed; tree restored to pure Python.", file=sys.stderr)
        return result.returncode
    print(f"compiled {len(files)} module(s): {', '.join(HOT_MODULES)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
