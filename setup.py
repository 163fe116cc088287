"""Setuptools entry point.

Kept alongside pyproject.toml so `pip install -e .` works in offline
environments whose setuptools lacks the `wheel` package (pip then falls
back to the legacy `setup.py develop` editable path).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Index Design for Enforcing Partial Referential "
        "Integrity Efficiently' (EDBT 2015)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    extras_require={"test": ["pytest", "hypothesis"]},
)
