"""The fuzzing driver behind ``python -m repro fuzz``.

One loop over the domain registry (:mod:`repro.fuzz.domains`: trees,
dynamic-update streams, MST graphs, CSV text, npz bytes), deterministic
per ``(seed, case index)``.  Each case is judged by its domain's
``check`` and a failing case is minimized by its domain's ``shrink``; the
loop itself knows no domain.  The first finding per distinct check name
is shrunk and written to the corpus; repeats are only counted, so a
single bug cannot flood the corpus.

The loop stops at ``max_cases``, at the wall-clock ``budget_s``, or -- when
neither is given -- at :data:`DEFAULT_MAX_CASES`.  A budget never changes
*what* case ``i`` is, only how many cases run, so any corpus entry a
budgeted run produces is byte-identical to the one an unbudgeted run
produces (the determinism contract the CLI documents).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.fuzz.corpus import save_finding
from repro.fuzz.domains import Domain, draw_case, select_domains
from repro.fuzz.generators import case_rng
from repro.fuzz.oracles import Finding

__all__ = ["DEFAULT_MAX_CASES", "FuzzReport", "run_fuzz"]

#: Cases to run when neither ``--cases`` nor ``--budget`` is given.
DEFAULT_MAX_CASES = 300


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    cases_run: int = 0
    findings: list[Finding] = field(default_factory=list)
    finding_counts: dict[str, int] = field(default_factory=dict)
    corpus_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def format_lines(self) -> list[str]:
        lines = [f"fuzz: seed={self.seed}, {self.cases_run} case(s) run"]
        for finding in self.findings:
            count = self.finding_counts.get(finding.check, 1)
            lines.append(f"  FAIL {finding.describe()} (x{count} case(s))")
        for path in self.corpus_paths:
            lines.append(f"  corpus entry written: {path}")
        lines.append(
            "fuzz: OK" if self.ok else f"fuzz: {len(self.findings)} distinct failure(s)"
        )
        return lines


def run_fuzz(
    seed: int = 0,
    budget_s: float | None = None,
    max_cases: int | None = None,
    corpus_dir: str | Path | None = None,
    domains: Sequence[Domain | str] | None = None,
    shrink: bool = True,
    stop_on_finding: bool = False,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the fuzz loop; see the module docstring for the protocol.

    ``domains`` narrows the wheel to registry domains, by name or as
    :class:`~repro.fuzz.domains.Domain` records (the selftest passes
    registry domains with a mutant ``check``); see
    :func:`~repro.fuzz.domains.select_domains`.  ``None`` is the whole
    registry.
    """
    wheel = select_domains(domains)
    report = FuzzReport(seed=seed)
    if max_cases is None and budget_s is None:
        max_cases = DEFAULT_MAX_CASES
    deadline = None if budget_s is None else time.monotonic() + budget_s
    index = 0
    while True:
        if max_cases is not None and index >= max_cases:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        rng = case_rng(seed, index)
        domain, case = draw_case(wheel, rng)
        # One derived stream per purpose so shrinking can replay relations
        # with the exact RNG the failing evaluation used.
        relation_seed = int(rng.integers(2**63))

        def evaluate(c: Any) -> list[Finding]:
            return domain.check(c, np.random.default_rng(relation_seed))

        findings = evaluate(case)
        for finding in findings:
            first_time = finding.check not in report.finding_counts
            report.finding_counts[finding.check] = (
                report.finding_counts.get(finding.check, 0) + 1
            )
            if not first_time:
                continue
            target_check = finding.check
            if shrink:

                def still_fails(c: Any) -> bool:
                    return any(f.check == target_check for f in evaluate(c))

                small = domain.shrink(finding.case, still_fails)
                finding = Finding(check=finding.check, message=finding.message, case=small)
            report.findings.append(finding)
            if corpus_dir is not None:
                report.corpus_paths.append(save_finding(finding, corpus_dir))
            if progress is not None:
                progress(f"case {index}: {finding.describe()}")
        index += 1
        report.cases_run = index
        if stop_on_finding and report.findings:
            break
    return report
