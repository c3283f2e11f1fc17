"""Reference implementations kept for differential testing.

Each module here holds an earlier version of a routine the program now
computes another way: the per-element Python loops behind the array code
on the ``/map`` miss path (``tests/test_array_differential.py``), and the
per-way stamp TLB behind the recency-ordered one
(``tests/tlb/test_tlb_differential.py``).  The differential suites
require bit-for-bit equal results from both.  Nothing under ``src/``
imports these.
"""
