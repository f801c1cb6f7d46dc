#!/usr/bin/env python3
"""Full round trip: synthesize, serialize, re-parse, verify, tamper.

Builds the toughness-6/5 instance, pushes its certificate through JSON,
verifies the parsed certificate with the exact oracles, then corrupts
one field and shows the verifier reject it: the certificate is a
function of its t, so the rebuild compares the JSON with the canonical
certificate of 6/5 and names the field that differs.

Usage: python demos/verify_roundtrip.py
"""

from __future__ import annotations

import json

from toughgraph import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    synthesize,
)


def show(report) -> None:
    print(f"accepted: {report.accepted}")
    print(f"toughness: {report.toughness_status}")
    print(f"nonhamiltonicity: {report.nonhamiltonicity_status}")
    for c in report.checks:
        print(f"  [{'ok' if c.ok else 'XX'}] {c.name}: {c.detail}")


def main() -> None:
    g, cert = synthesize("6/5")
    text = certificate_to_json(cert)
    print("certificate JSON:")
    print(text)

    parsed = certificate_from_json(text)
    print("verifying the genuine pair:")
    report = check_certificate(g, parsed)
    show(report)
    assert report.accepted, "the genuine certificate must verify"

    print()
    print("tampering: claim one more component than the cutset leaves...")
    payload = json.loads(text)
    payload["components"] += 1
    forged = certificate_from_json(json.dumps(payload))
    report = check_certificate(g, forged)
    show(report)
    assert not report.accepted and "components differ" in report.checks[0].detail


if __name__ == "__main__":
    main()
