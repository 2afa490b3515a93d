"""The replayable regression corpus under ``tests/fixtures/corpus/``.

Every finding the fuzzer shrinks is persisted as one JSON entry holding
the *case*, not the expected output: replaying re-runs the full battery
for the case's domain, so an entry passes exactly when the bug it pinned
stays fixed.  Entries are byte-stable:

* floats serialize as ``float.hex()`` strings (exact round-trip);
* ``.npz`` bytes serialize as base64;
* objects serialize with sorted keys and a trailing newline;
* the filename is content-addressed
  (``<kind>-<sha256 prefix>.json``), so identical findings from any run
  (or machine) produce identical files -- the determinism contract
  ``python -m repro fuzz`` advertises.

Format: ``repro-fuzz-corpus/1``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.fuzz.domains import domain_named, domain_of
from repro.fuzz.generators import NpzCase
from repro.fuzz.oracles import Finding
from repro.io import atomic_write

__all__ = [
    "CORPUS_FORMAT",
    "DEFAULT_CORPUS_DIR",
    "entry_bytes",
    "entry_filename",
    "load_entry",
    "replay_corpus",
    "replay_entry",
    "save_finding",
]

CORPUS_FORMAT = "repro-fuzz-corpus/1"

#: Where the CLI reads/writes the committed regression corpus.
DEFAULT_CORPUS_DIR = Path("tests") / "fixtures" / "corpus"


def _case_payload(case: Any) -> dict[str, Any]:
    domain = domain_of(case)
    return {"kind": domain.name, **domain.encode(case)}


def entry_bytes(finding: Finding) -> bytes:
    """Canonical serialized form of a finding (stable across runs)."""
    payload = {
        "format": CORPUS_FORMAT,
        "check": finding.check,
        "message": finding.message,
        "case": _case_payload(finding.case),
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def entry_filename(finding: Finding) -> str:
    blob = entry_bytes(finding)
    digest = hashlib.sha256(blob).hexdigest()[:12]
    return f"{domain_of(finding.case).name}-{digest}.json"


def save_finding(finding: Finding, corpus_dir: str | Path) -> Path:
    """Write the entry atomically (content-addressed; rewriting is idempotent)."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / entry_filename(finding)
    with atomic_write(path) as fh:
        fh.write(entry_bytes(finding))
    return path


def load_entry(path: str | Path) -> tuple[str, str, Any]:
    """Read one entry; returns ``(check, message, case)``."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CORPUS_FORMAT:
        raise ValueError(f"{path}: not a {CORPUS_FORMAT} entry")
    case = payload["case"]
    return payload["check"], payload["message"], domain_named(case["kind"]).decode(case)


def replay_entry(path: str | Path) -> list[Finding]:
    """Re-run the full battery for the entry's domain; [] means fixed."""
    _, _, case = load_entry(path)
    # Seeded from the entry's bytes: replay is deterministic run to run.
    digest = hashlib.sha256(Path(path).read_bytes()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return domain_of(case).check(case, rng)


def replay_corpus(corpus_dir: str | Path) -> list[tuple[Path, list[Finding]]]:
    """Replay every ``*.json`` entry, sorted by name; deterministic order.

    An entry that cannot even be parsed is reported as a finding rather
    than crashing the replay -- a corrupted corpus is itself a regression.
    """
    corpus_dir = Path(corpus_dir)
    results: list[tuple[Path, list[Finding]]] = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            findings = replay_entry(path)
        except Exception as exc:
            findings = [
                Finding(
                    check="corpus:invalid-entry",
                    message=f"{type(exc).__name__}: {exc}",
                    case=NpzCase(data=b"", label=path.name),
                )
            ]
        results.append((path, findings))
    return results
