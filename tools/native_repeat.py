"""Run tier-1 once, then the hardware-gated native smoke test N times.

The native smoke test (``test_12_native_smoke``) asserts orderings of
measured minima and read rates, so its margin is what a flaky run loses.
This loop runs it right after a full tier-1 run, the condition it once
failed under, and prints one line per run: pass or fail, then the minima
and rates from its ``ACCEPTANCE 12`` line or its assertion message.

    python tools/native_repeat.py        # 10 runs
    python tools/native_repeat.py 25     # 25 runs

Exit status 1 when tier-1 or any run fails, else 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_12 = "tests/test_acceptance.py::test_12_native_smoke"


def _pytest(args: list[str], native: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    if native:
        env["MEMCHAR_NATIVE_TESTS"] = "1"
    else:
        env.pop("MEMCHAR_NATIVE_TESTS", None)
    return subprocess.run([sys.executable, "-m", "pytest", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def _summary(out: str) -> str:
    """The last line of a pytest run, such as ``666 passed in 21.8s``."""
    lines = [line for line in out.splitlines() if line.strip()]
    return lines[-1].strip("= ") if lines else "(no output)"


def _outcome(res: subprocess.CompletedProcess) -> str:
    """The ``ACCEPTANCE 12`` text of a passing run, else the assertion (or
    the run's last line)."""
    if m := re.search(r"ACCEPTANCE 12 PASS: (.*)", res.stdout):
        return m.group(1)
    if m := re.search(r"^E\s+(AssertionError: .*)$", res.stdout, re.M):
        return m.group(1)
    return _summary(res.stdout + res.stderr)


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 10
    tier1 = _pytest(["-q", "--continue-on-collection-errors"], native=False)
    print(f"tier-1 {'pass' if tier1.returncode == 0 else 'FAIL'}: {_summary(tier1.stdout)}",
          flush=True)
    passed = 0
    for i in range(1, runs + 1):
        res = _pytest(["-q", "-s", TEST_12], native=True)
        ok = res.returncode == 0 and "ACCEPTANCE 12 PASS" in res.stdout
        passed += ok
        print(f"run {i:2d} {'pass' if ok else 'FAIL'}: {_outcome(res)}", flush=True)
    print(f"{passed}/{runs} runs of test_12 passed")
    return 0 if tier1.returncode == 0 and passed == runs else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
