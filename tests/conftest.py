import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from permobius.census import build_principal_table


@pytest.fixture(scope="session")
def mu_table7():
    """Shared level tables for 7, a principal-Mobius cache of every length <= 7."""
    return build_principal_table(7)
