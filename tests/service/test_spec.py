"""ProtocolSpec: validation, round trips, build factory and readable diffs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.exceptions import (
    PrivacyBudgetError,
    ProtocolConfigurationError,
)
from repro.io import load_protocol_spec, save_protocol_spec
from repro.service import SPEC_FORMAT_VERSION, ProtocolSpec

from .util import ALL_PROTOCOLS, LN3, build, small_dataset


class TestConstruction:
    def test_minimal_spec(self):
        spec = ProtocolSpec(protocol="InpHT", epsilon=LN3, max_width=2)
        assert spec.options == {}
        assert spec.epsilon == pytest.approx(LN3)

    def test_numpy_width_coerced(self):
        spec = ProtocolSpec(protocol="InpHT", epsilon=1.0, max_width=np.int64(3))
        assert spec.max_width == 3
        assert isinstance(spec.max_width, int)

    def test_bad_epsilon_uses_budget_validation(self):
        with pytest.raises(PrivacyBudgetError):
            ProtocolSpec(protocol="InpHT", epsilon=-1.0, max_width=2)

    @pytest.mark.parametrize("width", [0, -3, 2.5, "two", True])
    def test_bad_width_rejected(self, width):
        with pytest.raises(ProtocolConfigurationError):
            ProtocolSpec(protocol="InpHT", epsilon=1.0, max_width=width)

    def test_empty_protocol_rejected(self):
        with pytest.raises(ProtocolConfigurationError):
            ProtocolSpec(protocol="", epsilon=1.0, max_width=2)

    def test_non_string_option_keys_rejected(self):
        with pytest.raises(ProtocolConfigurationError):
            ProtocolSpec(
                protocol="InpHT", epsilon=1.0, max_width=2, options={1: 2}
            )

    def test_options_are_copied(self):
        options = {"width": 64}
        spec = ProtocolSpec(
            protocol="InpHTCMS", epsilon=1.0, max_width=2, options=options
        )
        options["width"] = 128
        assert spec.options == {"width": 64}


class TestBuild:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_build_constructs_the_named_protocol(self, name):
        spec = ProtocolSpec(protocol=name, epsilon=LN3, max_width=2)
        protocol = spec.build()
        assert protocol.name == name
        assert protocol.epsilon == pytest.approx(LN3)
        assert protocol.max_width == 2

    def test_build_forwards_options(self):
        spec = ProtocolSpec(
            protocol="InpHTCMS",
            epsilon=1.0,
            max_width=2,
            options={"num_hashes": 3, "width": 64},
        )
        assert spec.build().oracle(6).width == 64

    def test_unknown_protocol_raises(self):
        spec = ProtocolSpec(protocol="InpMagic", epsilon=1.0, max_width=2)
        with pytest.raises(ProtocolConfigurationError, match="InpMagic"):
            spec.build()

    def test_unknown_option_names_protocol_and_key(self):
        spec = ProtocolSpec(
            protocol="InpHT", epsilon=1.0, max_width=2, options={"bogus": 1}
        )
        with pytest.raises(ProtocolConfigurationError) as excinfo:
            spec.build()
        message = str(excinfo.value)
        assert "InpHT" in message
        assert "bogus" in message

    def test_unknown_option_lists_valid_options(self):
        spec = ProtocolSpec(
            protocol="InpHTCMS", epsilon=1.0, max_width=2, options={"depth": 5}
        )
        with pytest.raises(ProtocolConfigurationError) as excinfo:
            spec.build()
        message = str(excinfo.value)
        assert "num_hashes" in message and "width" in message


class TestRoundTrips:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_from_protocol_round_trip(self, name):
        protocol = build(name)
        spec = protocol.spec()
        rebuilt = spec.build()
        assert rebuilt.spec() == spec
        assert rebuilt.name == protocol.name
        assert rebuilt.epsilon == protocol.epsilon
        assert rebuilt.max_width == protocol.max_width
        assert rebuilt.spec_options() == protocol.spec_options()

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_json_round_trip(self, name):
        spec = build(name).spec()
        assert ProtocolSpec.from_json(spec.to_json()) == spec
        assert ProtocolSpec.from_dict(spec.to_dict()) == spec

    def test_to_json_is_deterministic(self):
        spec = ProtocolSpec(
            protocol="InpOLH",
            epsilon=1.25,
            max_width=2,
            options={"num_buckets": 8, "decode_batch_size": 0},
        )
        assert spec.to_json() == ProtocolSpec.from_json(spec.to_json()).to_json()

    def test_file_round_trip(self, tmp_path):
        spec = build("MargRR").spec()
        path = save_protocol_spec(spec, tmp_path / "spec.json")
        assert load_protocol_spec(path) == spec

    def test_format_version_is_stamped(self):
        payload = ProtocolSpec(
            protocol="InpHT", epsilon=1.0, max_width=2
        ).to_dict()
        assert payload["format_version"] == SPEC_FORMAT_VERSION


class TestRetiredDecodeOptions:
    """The OLH decode block and kernel backend are the machine's, not the
    spec's: a spec still carrying either key is refused, naming it."""

    @pytest.mark.parametrize("protocol", ["InpOLH", "HH"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("decode_batch_size", 1024),
            ("decode_batch_size", -3),
            ("kernel_backend", "numpy"),
            ("kernel_backend", 5),
        ],
    )
    def test_build_refuses_the_key_by_name(self, protocol, key, value):
        payload = ProtocolSpec(
            protocol=protocol, epsilon=1.0, max_width=2
        ).to_dict()
        payload["options"] = {key: value}
        spec = ProtocolSpec.from_dict(payload)
        with pytest.raises(ProtocolConfigurationError, match=key):
            spec.build()


class TestFromDictErrors:
    def base_payload(self):
        return ProtocolSpec(protocol="InpHT", epsilon=1.0, max_width=2).to_dict()

    def test_version_mismatch(self):
        payload = self.base_payload()
        payload["format_version"] = 99
        with pytest.raises(ProtocolConfigurationError, match="version"):
            ProtocolSpec.from_dict(payload)

    def test_missing_field(self):
        payload = self.base_payload()
        del payload["epsilon"]
        with pytest.raises(ProtocolConfigurationError, match="missing"):
            ProtocolSpec.from_dict(payload)

    def test_unexpected_field(self):
        payload = self.base_payload()
        payload["sharding"] = 4
        with pytest.raises(ProtocolConfigurationError, match="unexpected"):
            ProtocolSpec.from_dict(payload)

    def test_not_a_mapping(self):
        with pytest.raises(ProtocolConfigurationError, match="mapping"):
            ProtocolSpec.from_dict([1, 2, 3])

    def test_invalid_json(self):
        with pytest.raises(ProtocolConfigurationError, match="JSON"):
            ProtocolSpec.from_json("{not json")

    def test_json_integer_width_survives_float_coercion(self):
        payload = self.base_payload()
        payload["max_width"] = 2.0  # a JSON writer may emit 2.0 for 2
        assert ProtocolSpec.from_dict(payload).max_width == 2


class TestDiff:
    def test_equal_specs_have_empty_diff(self):
        first = build("InpRR").spec()
        second = build("InpRR").spec()
        assert first.diff(second) == []

    def test_diff_reports_every_field(self):
        first = ProtocolSpec(
            protocol="InpRR",
            epsilon=1.0,
            max_width=2,
            options={"optimized_probabilities": True},
        )
        second = ProtocolSpec(
            protocol="InpHT", epsilon=2.0, max_width=3, options={}
        )
        lines = first.diff(second)
        assert any("protocol" in line for line in lines)
        assert any("epsilon" in line for line in lines)
        assert any("max_width" in line for line in lines)
        assert any("optimized_probabilities" in line for line in lines)

    def test_diff_is_readable_per_option(self):
        first = ProtocolSpec(
            protocol="InpHTCMS", epsilon=1.0, max_width=2, options={"width": 64}
        )
        second = ProtocolSpec(
            protocol="InpHTCMS", epsilon=1.0, max_width=2, options={"width": 256}
        )
        (line,) = first.diff(second)
        assert "width" in line and "64" in line and "256" in line

    def test_diff_rejects_non_spec(self):
        spec = build("InpHT").spec()
        with pytest.raises(ProtocolConfigurationError):
            spec.diff({"protocol": "InpHT"})


class TestIntegration:
    def test_run_streaming_metadata_carries_the_spec(self):
        dataset = small_dataset(n=48, d=3)
        protocol = build("InpHT")
        estimator = protocol.run_streaming(
            dataset, rng=np.random.default_rng(1), batch_size=16
        )
        assert estimator.metadata["spec"] == protocol.spec().to_dict()
        # The metadata spec is enough to rebuild the collection contract.
        rebuilt = ProtocolSpec.from_dict(estimator.metadata["spec"]).build()
        assert rebuilt.spec() == protocol.spec()

    def test_describe_mentions_the_parameters(self):
        text = build("InpHTCMS").spec().describe()
        assert text.startswith("InpHTCMS(")
        assert "k=2" in text and "num_hashes=3" in text


class TestNonNumericEpsilon:
    def test_non_numeric_epsilon_is_a_configuration_error(self):
        with pytest.raises(ProtocolConfigurationError, match="epsilon"):
            ProtocolSpec(protocol="InpHT", epsilon="abc", max_width=2)
        with pytest.raises(ProtocolConfigurationError, match="epsilon"):
            ProtocolSpec(protocol="InpHT", epsilon=None, max_width=2)

    def test_uncoercible_option_value_is_a_configuration_error(self):
        spec = ProtocolSpec(
            protocol="InpHTCMS", epsilon=1.0, max_width=2,
            options={"width": [1, 2]},
        )
        with pytest.raises(ProtocolConfigurationError, match="rejected"):
            spec.build()
