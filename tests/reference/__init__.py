"""Loop-based reference implementations kept for differential testing.

Each module here holds the per-element Python version of a routine the
program now computes with array code.  The differential suite
(``tests/test_array_differential.py``) requires the array code to give
bit-for-bit equal results.  Nothing under ``src/`` imports these.
"""
