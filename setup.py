"""Setuptools metadata.

There is no ``pyproject.toml``: the target environments are offline
machines without the ``wheel`` package, where ``pip`` falls back to the
legacy ``setup.py`` paths, so the metadata lives here directly.

The package has **zero** dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mule",
    version="1.0.0",
    description=(
        "Reproduction of 'Mining Maximal Cliques from an Uncertain Graph' "
        "(Mukherjee, Xu, Tirthapura; ICDE 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    entry_points={
        "console_scripts": [
            "repro-mule = repro.cli.main:main",
        ],
    },
)
