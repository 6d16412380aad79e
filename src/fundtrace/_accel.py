"""Kept only because ``bench/run.py`` reads this flag for its ``context``
line.

The classic push has one pure-Python implementation,
``baselines.appr_rank``; no compiled kernel exists and nothing in the
package imports this module.
"""
USE_NUMBA = False
