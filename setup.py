"""Setuptools shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so the
package can also be installed in environments without the ``wheel`` package
(legacy ``python setup.py develop`` / offline editable installs).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "COSMA reproduction: near communication-optimal parallel matrix-matrix "
        "multiplication via red-blue pebbling (SC 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.25"],
)
