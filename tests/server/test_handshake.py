"""The HELLO spec agreement: hashes, payloads, readable rejections."""

from __future__ import annotations

import pytest

from repro.core.domain import Domain
from repro.server.handshake import check_hello, hello_payload, spec_hash
from repro.service import ProtocolSpec


@pytest.fixture
def spec():
    return ProtocolSpec(protocol="InpOLH", epsilon=1.1, max_width=2)


@pytest.fixture
def domain():
    return Domain.binary(4)


def _server_side(spec):
    return ProtocolSpec.from_protocol(spec.build())


class TestSpecHash:
    def test_stable_across_instances(self, spec):
        clone = ProtocolSpec.from_dict(spec.to_dict())
        assert spec_hash(spec) == spec_hash(clone)

    def test_canonicalisation_unifies_spelled_defaults(self, spec):
        # The raw spec omits defaults, the canonical one spells them out —
        # their raw hashes differ but the canonical hashes agree.
        assert spec_hash(spec) != spec_hash(spec.canonical())
        assert spec_hash(spec.canonical()) == spec_hash(
            spec.canonical().canonical()
        )

    def test_different_specs_hash_differently(self, spec):
        other = ProtocolSpec(protocol="InpOLH", epsilon=0.9, max_width=2)
        assert spec_hash(spec) != spec_hash(other)


class TestHelloPayload:
    def test_carries_spec_hash_and_attributes(self, spec, domain):
        payload = hello_payload(spec, domain.attributes)
        assert payload["spec"] == spec.to_dict()
        assert payload["spec_hash"] == spec_hash(spec.canonical())
        assert payload["attributes"] == list(domain.attributes)


class TestCheckHello:
    def test_accepts_identical_contract(self, spec, domain):
        server_spec = _server_side(spec)
        payload = hello_payload(spec, domain.attributes)
        assert check_hello(payload, server_spec, domain.attributes) == []

    @pytest.mark.parametrize(
        "key, value", [("decode_batch_size", -3), ("kernel_backend", 5)]
    )
    def test_rejects_retired_decode_options_by_name(
        self, spec, domain, key, value
    ):
        """The decode block and kernel are the machine's, not the spec's:
        a HELLO still carrying either key is refused, naming it."""
        server_spec = _server_side(spec)
        hostile = spec.to_dict()
        hostile["options"] = {key: value}
        problems = check_hello(
            {"spec": hostile, "attributes": list(domain.attributes)},
            server_spec,
            domain.attributes,
        )
        assert len(problems) == 1
        assert problems[0].startswith("spec:") and key in problems[0]

    def test_rejects_epsilon_mismatch_with_diff(self, spec, domain):
        server_spec = _server_side(spec)
        client = ProtocolSpec(protocol="InpOLH", epsilon=0.7, max_width=2)
        payload = hello_payload(client, domain.attributes)
        problems = check_hello(payload, server_spec, domain.attributes)
        assert any("epsilon" in line for line in problems)

    def test_rejects_protocol_mismatch(self, spec, domain):
        server_spec = _server_side(spec)
        client = ProtocolSpec(protocol="InpRR", epsilon=1.1, max_width=2)
        payload = hello_payload(client, domain.attributes)
        problems = check_hello(payload, server_spec, domain.attributes)
        assert any("protocol" in line for line in problems)

    def test_rejects_attribute_mismatch(self, spec, domain):
        server_spec = _server_side(spec)
        payload = hello_payload(spec, ["x", "y", "z", "w"])
        problems = check_hello(payload, server_spec, domain.attributes)
        assert any("attributes" in line for line in problems)

    def test_rejects_malformed_spec_payload(self, spec, domain):
        server_spec = _server_side(spec)
        problems = check_hello(
            {"spec": {"bogus": True}, "attributes": list(domain.attributes)},
            server_spec,
            domain.attributes,
        )
        assert problems and problems[0].startswith("spec:")

    def test_rejects_missing_attributes(self, spec, domain):
        server_spec = _server_side(spec)
        payload = {"spec": spec.to_dict()}
        problems = check_hello(payload, server_spec, domain.attributes)
        assert any("attributes" in line for line in problems)

    def test_rejects_invalid_epsilon_as_reason_not_crash(self, spec, domain):
        """Any ReproError a hostile spec raises (here PrivacyBudgetError)
        becomes a rejection line, never an escaping exception."""
        server_spec = _server_side(spec)
        hostile = spec.to_dict()
        hostile["epsilon"] = -1.0
        problems = check_hello(
            {"spec": hostile, "attributes": list(domain.attributes)},
            server_spec,
            domain.attributes,
        )
        assert problems and problems[0].startswith("spec:")

    def test_rejects_wrong_spec_hash(self, spec, domain):
        server_spec = _server_side(spec)
        payload = hello_payload(spec, domain.attributes)
        payload["spec_hash"] = "0" * 64
        problems = check_hello(payload, server_spec, domain.attributes)
        assert any("spec_hash" in line for line in problems)

    def test_accepts_hello_without_spec_hash(self, spec, domain):
        server_spec = _server_side(spec)
        payload = hello_payload(spec, domain.attributes)
        del payload["spec_hash"]
        assert check_hello(payload, server_spec, domain.attributes) == []
