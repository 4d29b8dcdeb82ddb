import json
import os
from dataclasses import replace

import pytest
from hypothesis import settings

from omrouter import default_params, derive_operating_point

# tier-1's verdict depends only on the commit: every property test draws
# the same examples on every run, and no failure stored by an earlier run
# is replayed.  HYPOTHESIS_PROFILE=explore keeps random draws and the
# example database, to search for new failures apart from the gate; no
# test sets derandomize itself, so the profile decides for every one
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


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
