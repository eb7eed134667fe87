"""Setup shim for environments without the `wheel` package.

`pip install -e . --no-build-isolation` needs bdist_wheel; this offline
environment lacks it, so `python setup.py develop` (or this shim) keeps
the editable install path working.
"""

from setuptools import setup

# The columnar miss path uses 3.10+ features (slotted dataclasses,
# int.bit_count); CI tests 3.10–3.12.
#
# Standard library only, the full paper sweep (`python -m repro
# reproduce`) included.  NumPy is used by one test alone, which checks
# radix's key stream against the NumPy generator it was ported from.
setup(python_requires=">=3.10")
