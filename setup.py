from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: ship inline type information (repro.api is checked with
    # mypy --strict in CI; see mypy.ini and docs/LINTING.md).
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    # The core install is dependency-free pure Python.  numpy only
    # speeds up the burst screen of batched admission, and is imported
    # at the first screen; decisions are bit-identical either way (see
    # docs/PERFORMANCE.md).
    extras_require={"fast": ["numpy"]},
)
