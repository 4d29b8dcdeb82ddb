import json
from dataclasses import replace

import pytest

from omrouter import default_params, derive_operating_point


@pytest.fixture(scope="session")
def op_off():
    return derive_operating_point(replace(default_params(), drive_power=0.0))


@pytest.fixture(scope="session")
def op_5uw():
    return derive_operating_point(default_params())


@pytest.fixture(scope="session")
def op_20uw():
    return derive_operating_point(replace(default_params(), drive_power=20e-6))


@pytest.fixture()
def write_config(tmp_path):
    def _write(name="cfg.json", **entries):
        path = tmp_path / name
        path.write_text(json.dumps(entries))
        return str(path)
    return _write
