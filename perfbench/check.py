"""Answer check for one benchmark request.

A request passes when the CLI exits with 0, prints every expected report
line, and, for bundle requests, reports a total that meets the divisibility
the generator guarantees.  An expected line may be followed on the same
output line by more text that does not continue its last token (so
"BK = 5" matches "BK = 5 (gauss)" but not "BK = 57"), which keeps the check
valid when a report gains annotations such as per-suite timings.
"""
from __future__ import annotations

import re
from typing import Dict, Optional

_TOTAL = re.compile(r"^local system signature \(total\): (-?\d+)", re.MULTILINE)


def check_response(request: Dict, exit_code: int, output: str) -> Optional[str]:
    """None when the answer is right, otherwise the first reason it is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    lines = output.splitlines()
    for want in request["expect"]:
        if not any(_matches(line, want) for line in lines):
            return f"missing line {want!r}"
    total = request.get("total")
    if total is not None:
        found = _TOTAL.findall(output)
        if len(found) != 1:
            return "no local system signature line"
        value = int(found[0])
        if value % total["modulus"]:
            return f"total {value} is not divisible by {total['modulus']}"
        if total["zero"] and value != 0:
            return f"total {value} at fibre genus 1, expected 0"
    return None


def _matches(line: str, want: str) -> bool:
    return line.startswith(want) and (len(line) == len(want) or not line[len(want)].isalnum())
