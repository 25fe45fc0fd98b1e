"""Setuptools shim; every piece of metadata lives in ``pyproject.toml``.

``pip install -e .`` builds a PEP 660 editable wheel, which setuptools before
70.1 can only do with the ``wheel`` package installed.  Where ``wheel`` is
missing (and cannot be fetched offline), ``python setup.py develop --no-deps``
installs the same editable package through this file instead.
"""

from setuptools import setup

setup()
