"""Output checks for one `gop` invocation.

An output passes when the child exited 0 within its timeout, printed one
JSON envelope that validates against the command's schema in
`src/gop/schemas/`, and shows the facts the invocation expects: every scan
report and every pcurv result has `method_agreement: true`, every Pade
result has `residual_order >= N + M + 1`, drawn operators have the local
exponents their parameters predict, and the envelope's canonical digest
matches the one recorded for that invocation on the default seed, if any.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def canonical_digest(envelope: dict) -> str:
    """sha256 of the envelope without its `timing_ms`, keys sorted."""
    body = {k: v for k, v in envelope.items() if k != "timing_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_references() -> dict:
    """Invocation key -> digest, as recorded for the default seed."""
    return json.loads(REFERENCE_FILE.read_text())["digests"]


class Checker:
    """Validates envelopes against the schemas under `schema_dir`."""

    def __init__(self, schema_dir: Path, references: dict):
        from jsonschema import Draft7Validator

        self._validators = {
            path.stem: Draft7Validator(json.loads(path.read_text()))
            for path in sorted(schema_dir.glob("*.json"))
        }
        self.references = references

    def check(self, inv, code: int, stdout: bytes) -> tuple[list[str], str | None]:
        """(reasons the output is wrong, canonical digest or None)."""
        if code != 0:
            return [f"exit code {code}"], None
        try:
            envelope = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON document"], None
        if not isinstance(envelope, dict):
            return ["stdout is not a JSON object"], None
        command = inv.argv[0]
        reasons = []
        if envelope.get("command") != command:
            reasons.append(f"envelope command {envelope.get('command')!r} != {command!r}")
        validator = self._validators.get(command)
        if validator is None:
            reasons.append(f"no schema for {command!r}")
        else:
            for err in validator.iter_errors(envelope):
                path = "/".join(str(p) for p in err.absolute_path)
                reasons.append(f"schema: {path}: {err.message[:160]}")
        if not reasons:
            reasons.extend(_semantic_reasons(inv, envelope["result"]))
        digest = canonical_digest(envelope)
        want = self.references.get(inv.key)
        if want is not None and digest != want:
            reasons.append("output differs from the reference recorded for the default seed")
        return reasons, digest


def _semantic_reasons(inv, result: dict) -> list[str]:
    command = inv.argv[0]
    reasons = []
    if command == "scan":
        bad = [r["prime"] for r in result["reports"] if r["method_agreement"] is not True]
        if bad:
            reasons.append(f"method_agreement false at primes {bad}")
    elif command == "pcurv" and result["method_agreement"] is not True:
        reasons.append("method_agreement false")
    elif command == "pade":
        need = result["N"] + result["M"] + 1
        if result["residual_order"] < need:
            reasons.append(f"residual_order {result['residual_order']} < N+M+1 = {need}")
    if inv.expect:
        if command == "exponents":
            found = {result["point"]: result["rational_exponents"]}
        else:
            found = {
                pt["location"]: pt["rational_exponents"]
                for pt in result["profile"]["points"]
                if isinstance(pt["location"], str)
            }
        for point, want in inv.expect.items():
            got = found.get(point)
            if got is None:
                reasons.append(f"no exponents reported at {point}")
            elif sorted(Fraction(e) for e in got) != [Fraction(e) for e in want]:
                reasons.append(f"exponents at {point}: {got} != {want}")
    return reasons
