"""Install shim for the ``repro`` package (``src/`` layout).

``pip install -e .`` puts ``repro`` on the path and installs the
``bismo`` command (``repro.harness.cli:main``).  Without the ``wheel``
package, ``python setup.py develop`` does the same.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["bismo = repro.harness.cli:main"]},
)
