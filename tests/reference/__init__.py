"""Superseded implementations, kept as test oracles only.

Each module here is an implementation ``src/`` ran before a rewrite (or
the seed code a rewrite replaced), stripped to what the equivalence tests
need.  Nothing under ``src/`` imports from this package; tier-1 tests
compare the current code against it (``tests/test_model_plane_equivalence.py``,
``tests/test_dtype_lanes.py``, ``tests/test_data_stream.py``,
``tests/test_hw_numa_reuse.py``, ``tests/test_vectorcache.py``,
``tests/test_shardstore.py``).
"""
