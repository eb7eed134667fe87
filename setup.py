"""Setup shim for environments without the `wheel` package.

`pip install -e . --no-build-isolation` needs bdist_wheel; this offline
environment lacks it, so `python setup.py develop` (or this shim) keeps
the editable install path working.
"""

from setuptools import setup

# The columnar miss path uses 3.10+ features (slotted dataclasses,
# int.bit_count); CI tests 3.10–3.12.
#
# The simulator, its engines, the result store and the CLI have zero
# runtime dependencies.  NumPy's only user is the radix trace generator,
# so the full paper sweep (`python -m repro reproduce`) needs
#   pip install numpy
setup(python_requires=">=3.10")
