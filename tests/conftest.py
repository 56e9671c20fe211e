"""Shared fixtures plus the acceptance-criteria summary printer."""

import re

ACCEPTANCE = {
    1: "EPR pair diagram entropies and atoms",
    2: "monotonicity flagged for EPR, never for classical states",
    3: "parallel devices: atoms (0,1,0), outcomes half/half",
    4: "orthogonal devices: atoms (1,0,1)",
    5: "ternary center vanishes on the 21x21 angle grid",
    6: "post-measurement purity on the 21x21 angle grid",
    7: "GHZ atoms and single-party reductions",
    8: "cat: cat-observer mutual 1.0, center 0 for both groupings",
    9: "CHSH canonical value, scan cap, classical bound",
    10: "Monte Carlo mutual within 0.01 bits; bit-identical records",
    11: "property suites: Mobius, SSA, pure complement, basis invariance",
    12: "CLI JSON byte-identical across runs",
    13: "memory bounded in --shots and --scan",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_c(\d{2})")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    # later statuses overwrite earlier ones, so a teardown error demotes a pass
    for status in ("passed", "skipped", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = _NODE_RE.search(getattr(rep, "nodeid", ""))
            if m:
                seen[int(m.group(1))] = status
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for num, text in sorted(ACCEPTANCE.items()):
        status = seen.get(num)
        if status == "passed":
            label = "PASS"
        elif status is None:
            label = "NOT RUN"
        elif status == "skipped":
            label = "SKIP"
        else:
            label = "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {label:7s} {text}")
