"""Pytest configuration for the tier-1 suite."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes several seconds; deselect with -m 'not slow'"
    )
