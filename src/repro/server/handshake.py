"""The HELLO handshake: how a client proves it speaks the server's spec.

The first frame on every connection is a ``HELLO`` control frame carrying
the client's full :class:`~repro.service.ProtocolSpec` (as ``to_dict``),
the SHA-256 of its canonical JSON form, and the attribute names of the
domain the client reports over.  The server diffs the client spec against
its own in canonical form, defaults spelled out, so a rejection carries
the exact per-field disagreement instead of an opaque hash mismatch.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence

from ..core.exceptions import ReproError
from ..service.spec import ProtocolSpec

__all__ = ["spec_hash", "hello_payload", "check_hello", "check_token"]


def spec_hash(spec: ProtocolSpec) -> str:
    """SHA-256 of the spec's sorted-key JSON form.

    Hash the *canonical* spec (``spec.canonical()``) when the hash must be
    comparable across clients that spell defaults differently.
    """
    return hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()


def hello_payload(
    spec: ProtocolSpec,
    attributes: Sequence[str],
    *,
    token: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``HELLO`` payload a client sends to open a collection stream.

    ``token`` is an optional opaque group identifier: a collector records
    it at ACK time and answers a replay of the same
    token idempotently (retry-after-failure never double-counts a group).
    """
    payload = {
        "spec": spec.to_dict(),
        "spec_hash": spec_hash(spec.canonical()),
        "attributes": list(attributes),
    }
    if token is not None:
        payload["token"] = str(token)
    return payload


def check_hello(
    payload: Dict[str, Any],
    server_spec: ProtocolSpec,
    attributes: Sequence[str],
) -> List[str]:
    """Validate a ``HELLO`` payload against the server's contract.

    Returns the rejection reasons — the readable spec diff plus any
    domain/shape problems — or an empty list when the client is accepted.
    ``server_spec`` must already be canonical.  A ``spec_hash`` in the
    payload is checked against the canonical form of the spec *in the same
    payload* (an integrity check on the handshake itself); spec agreement
    with the server is always decided by the canonical diff.
    """
    problems: List[str] = []
    spec_dict = payload.get("spec")
    try:
        client_spec = ProtocolSpec.from_dict(spec_dict)
        client_canonical = client_spec.canonical()
    except ReproError as error:
        # Anything a hostile spec can raise — malformed shapes, unknown
        # protocols/options, invalid epsilon (PrivacyBudgetError) — is a
        # rejection reason, never a handler crash.
        return [f"spec: {error}"]
    claimed_hash = payload.get("spec_hash")
    if claimed_hash is not None and claimed_hash != spec_hash(client_canonical):
        problems.append(
            "spec_hash: does not match the canonical form of the spec sent "
            "in this HELLO (corrupted or stale handshake)"
        )
    problems.extend(server_spec.diff(client_canonical))
    client_attributes = payload.get("attributes")
    if not isinstance(client_attributes, list) or not all(
        isinstance(name, str) for name in client_attributes
    ):
        problems.append("attributes: must be a list of attribute names")
    elif list(client_attributes) != list(attributes):
        problems.append(
            f"attributes: {list(attributes)!r} != {list(client_attributes)!r}"
        )
    problems.extend(check_token(payload))
    return problems


def check_token(payload: Dict[str, Any]) -> List[str]:
    """The rejection reason for a ``HELLO`` token that is not a string."""
    token = payload.get("token")
    if token is not None and not isinstance(token, str):
        return [f"token: must be a string when present, got {type(token).__name__}"]
    return []
