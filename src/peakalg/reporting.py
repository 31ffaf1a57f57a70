"""Checks and their results for the verification suites.

A Check is an id, its cases (cheap labels: ranks, degree pairs, arrow
names) and a body of one case; run_checks runs each as one run_check.
A check passes, fails, or errors; failures carry a human-readable witness
(the offending pair, label, or identity), errors the type and message of
an unexpected exception raised by the check body.  A cap hit inside a
check (perms.CapExceeded) is none of these and propagates: the check was
asked for a rank beyond a cap, which says nothing about its identity.
Reports serialize to JSON with wall times stripped by default so that
repeated runs and different worker counts produce byte-identical output.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

from .perms import CapExceeded


class CheckFailure(Exception):
    """Raised by a check body; the message is the witness."""


class CheckResult:
    __slots__ = ("check_id", "status", "witness", "wall_ms")

    def __init__(self, check_id: str, status: str, witness: str = "", wall_ms: float = 0.0):
        self.check_id, self.status, self.witness, self.wall_ms = check_id, status, witness, wall_ms

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def run_check(check_id: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        fn()
    except CapExceeded:
        raise
    except (CheckFailure, AssertionError, ArithmeticError, ValueError) as exc:
        ms = 1000.0 * (time.perf_counter() - t0)
        return CheckResult(check_id, "fail", witness=str(exc), wall_ms=ms)
    except Exception as exc:
        ms = 1000.0 * (time.perf_counter() - t0)
        witness = f"{type(exc).__name__}: {exc}"
        return CheckResult(check_id, "error", witness=witness, wall_ms=ms)
    ms = 1000.0 * (time.perf_counter() - t0)
    return CheckResult(check_id, "pass", wall_ms=ms)


# A declared check: run_checks calls body(case) for each case in order
Check = namedtuple("Check", "check_id cases body")


def run_checks(checks) -> list:
    """The CheckResult of each check, in order; each runs through run_check."""

    def run(check):
        for case in check.cases:
            check.body(case)

    return [run_check(check.check_id, lambda: run(check)) for check in checks]


class VerifyReport:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: list | None = None):
        self.suite, self.checks = suite, [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def errored(self) -> bool:
        return any(c.status == "error" for c in self.checks)

    def first_failure(self):
        return next((c for c in self.checks if not c.ok), None)

    def to_json(self, *, include_times: bool = False) -> str:
        body = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    **({"witness": c.witness} if c.witness else {}),
                    **({"wall_ms": round(c.wall_ms, 3)} if include_times else {}),
                }
                for c in sorted(self.checks, key=lambda c: c.check_id)
            ],
        }
        return json.dumps(body, indent=2)

    def pretty(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"suite {self.suite}: {verdict if self.checks else 'no checks at these ranks'}"]
        for c in sorted(self.checks, key=lambda c: c.check_id):
            mark = {"pass": "ok ", "fail": "FAIL"}.get(c.status, "ERR ")
            line = f"  [{mark}] {c.check_id} ({c.wall_ms:.0f} ms)"
            if c.witness:
                line += f" -- {c.witness}"
            lines.append(line)
        return "\n".join(lines)
