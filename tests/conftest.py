"""Every test starts on an empty tape."""

import pytest

from s2fpn import tape


@pytest.fixture(autouse=True)
def fresh_tape():
    tape().reset()
