"""Record the digests and tiers the correctness gate compares against.

    python3 bench/record.py

Runs CLI synth and verify for every certify target (full and smoke
input sets) and writes bench/expected.json.  Re-record only in a change
that is meant to alter synth or verify output bytes, and say so there.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import (
    CERTIFY_EXACT_TARGETS, CERTIFY_LARGE_TARGETS, SMOKE_EXACT_TARGETS,
    SMOKE_LARGE_TARGETS, sha256,
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tg = run.import_fresh()
    run.WORK.mkdir(parents=True, exist_ok=True)
    targets = list(CERTIFY_EXACT_TARGETS) + [t for t, _ in CERTIFY_LARGE_TARGETS]
    targets += [t for t in SMOKE_EXACT_TARGETS if t not in targets]
    targets += [t for t, _ in SMOKE_LARGE_TARGETS if t not in targets]
    expected = {}
    for target in targets:
        graph, cert = run.WORK / "record.g6", run.WORK / "record.cert.json"
        rc, _, _, _ = run.call(tg, ["synth", target, "--out", str(graph), "--cert", str(cert)])
        rc2, report, _, _ = run.call(tg, ["verify", str(graph), str(cert)])
        if rc or rc2:
            raise SystemExit(f"{target}: synth exited {rc}, verify exited {rc2}")
        g = tg.decode_graph6(graph.read_bytes())
        parsed = json.loads(report)
        expected[target] = {
            "case": json.loads(cert.read_text())["case"],
            "n": g.n,
            "m": g.edge_count,
            "graph6_sha256": sha256(graph.read_bytes()),
            "cert_sha256": sha256(cert.read_bytes()),
            "report_sha256": sha256(report.encode()),
            "toughness_status": parsed["toughness_status"],
            "nonhamiltonicity_status": parsed["nonhamiltonicity_status"],
        }
        print(target, expected[target]["case"], g.n, g.edge_count, parsed["toughness_status"],
              flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
