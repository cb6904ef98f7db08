"""Setup shim so that ``pip install -e .`` works in offline environments.

All project metadata lives in ``pyproject.toml`` (the version is read from
``repro.__version__``); this file only enables the legacy editable-install
path (``--no-use-pep517`` / environments without the ``wheel`` package).
"""

from setuptools import setup

setup()
