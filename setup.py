"""Legacy setup shim.

The reproduction environment is offline and lacks the ``wheel`` package,
so PEP 660 editable installs are unavailable; this shim lets
``pip install -e .`` (and ``python setup.py develop``) use the legacy
setuptools path.  All real metadata lives in pyproject.toml
(``python setup.py --name`` reads it: ``repro``).
"""

from setuptools import setup

setup()
