"""Build shim for offline editable installs.

All metadata lives in pyproject.toml; this file only lets
``pip install -e . --no-use-pep517 --no-build-isolation`` work without
the ``wheel`` package.
"""

from setuptools import setup

setup()
