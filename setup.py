"""Setuptools metadata.

There is no ``pyproject.toml``: the target environments are offline
machines without the ``wheel`` package, where ``pip`` falls back to the
legacy ``setup.py`` paths, so the metadata lives here directly.

The package has **zero** dependencies.  The vector kernel ships as C
source (package data) and is compiled on first use by the system C
compiler, so installing needs no build step.
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
    # The vector kernel's C source: the first kernel resolution compiles it
    # with the system C compiler (repro.core.engine.backends.native).
    package_data={"repro.core.engine.backends": ["_mule.c"]},
    python_requires=">=3.10",
    install_requires=[],
    entry_points={
        "console_scripts": [
            "repro-mule = repro.cli.main:main",
        ],
    },
)
