"""Reference implementations the differential suites compare against.

Each module here is a plain, row-at-a-time version of a kernel that
``src/`` builds one way only; it is kept for its obviousness, not its
speed, and never imported by the package.
"""
