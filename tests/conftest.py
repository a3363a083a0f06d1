import pytest

from dp5 import count


@pytest.fixture(autouse=True)
def cold_field_tables():
    """Start and leave every test with empty per-(q, degree) table caches.

    count_fast keeps its outer and root-mask tables for the life of the
    process, so a test that patches a table builder would otherwise see
    tables an earlier test built, and tables a patched builder made would
    reach later tests.
    """
    count._outer_tables.cache_clear()
    count._mask_table.cache_clear()
    yield
    count._outer_tables.cache_clear()
    count._mask_table.cache_clear()
