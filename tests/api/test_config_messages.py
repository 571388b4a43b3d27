"""Every ExecutionConfig ValueError names the offending field.

A config assembled from CLI flags, JSON, or a sweep grid fails with a
message the caller can map straight back to a knob -- no "invalid value"
archaeology.  Parametrized over one illegal value per field.
"""

import pytest

from repro.api.config import CONFIG_FIELDS, ExecutionConfig

BAD_VALUES = {
    "estimator": "nope",
    "shots": -1,
    "snapshots": -2,
    "chunk_size": 0,
    "seed": -5,
    "compile": "bogus",
    "dispatch_policy": "nope",
    "vectorize": "x",
    "array_backend": "bogus",
    "preflight": "maybe",
    "backend": 123,
}


@pytest.mark.parametrize("field,value", sorted(BAD_VALUES.items(), key=str))
def test_value_error_names_the_field(field, value):
    with pytest.raises(ValueError) as excinfo:
        ExecutionConfig(**{field: value})
    assert field in str(excinfo.value)


def test_every_config_field_has_a_bad_case():
    """New knobs must register an illegal value here (or be exempt on
    purpose -- there is no unvalidated field today)."""
    assert set(BAD_VALUES) == set(CONFIG_FIELDS)


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("compile", 0, "compile"),  # width error path, distinct from the typo path
        ("seed", "x", "seed"),
        ("backend", object(), "backend"),
    ],
)
def test_secondary_error_paths_name_the_field(field, value, fragment):
    with pytest.raises(ValueError) as excinfo:
        ExecutionConfig(**{field: value})
    assert fragment in str(excinfo.value)
