"""The vectorised sample encoder against the json.dumps it replaces."""

import json

import numpy as np
import pytest

from repro.data.dataset import Dataset, Schema
from repro.service.serializers import dataset_to_rows, sample_json

EXTRA = {
    "model_id": "m-1",
    "dataset_id": "démo \"quoted\"",
    "epsilon": 0.1,
    "seed": None,
    "privacy_cost": 0.0,
}


def reference(dataset, extra=EXTRA):
    return json.dumps(dataset_to_rows(dataset) | extra).encode()


def random_dataset(domain, m, n, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, domain, size=(n, m), dtype=np.int64)
    # Both ends of the domain, so every digit count up to the widest shows.
    values.flat[0] = domain - 1
    values.flat[-1] = 0
    return Dataset(values, Schema.from_domain_sizes([domain] * m))


@pytest.mark.parametrize("n", [1, 50_000])
@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("domain", [1, 2, 10, 999, 1000, 10**6])
def test_byte_identical_to_json_dumps(domain, m, n):
    dataset = random_dataset(domain, m, n)
    assert sample_json(dataset, EXTRA) == reference(dataset)


@pytest.mark.parametrize("domain", [1001, 10**9 + 7, 10**18, 2**63 - 1])
def test_byte_identical_beyond_two_chunks(domain):
    dataset = random_dataset(domain, 3, 500, seed=1)
    assert sample_json(dataset, EXTRA) == reference(dataset)


def test_every_digit_count_and_chunk_boundary():
    values = [0, 1, 9, 10, 99, 100, 999, 1000, 1001, 999_999, 10**6, 10**12 + 5]
    dataset = Dataset(
        np.array(values, dtype=np.int64)[:, None],
        Schema.from_domain_sizes([10**13]),
    )
    assert sample_json(dataset, EXTRA) == reference(dataset)


def test_mixed_domains_and_names():
    rng = np.random.default_rng(2)
    domains = [5, 10, 20, 50, 100, 200, 500, 1000]
    values = np.column_stack([rng.integers(0, d, size=2000) for d in domains])
    schema = Schema.from_domain_sizes(domains, prefix="col \"å\" ")
    dataset = Dataset(values, schema)
    assert sample_json(dataset, EXTRA) == reference(dataset)


def test_empty_dataset_and_no_extra_fields():
    dataset = Dataset(
        np.empty((0, 3), dtype=np.int64), Schema.from_domain_sizes([4, 5, 6])
    )
    assert sample_json(dataset, EXTRA) == reference(dataset)
    full = random_dataset(7, 2, 10)
    assert sample_json(full, {}) == reference(full, {})


def test_extra_may_not_replace_the_records():
    dataset = random_dataset(7, 2, 10)
    with pytest.raises(ValueError, match="columns or records"):
        sample_json(dataset, {"records": []})
