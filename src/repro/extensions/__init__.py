"""Algorithms registered from outside the core package.

* :mod:`repro.extensions.allgather` -- the naive 1D all-gather baseline of
  Figure 2, and the worked example of extending the algorithm registry:
  importing it registers ``AllGather1D``.
"""
