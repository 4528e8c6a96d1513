"""Empty on purpose.

The labelled-slot state algebra that lived here is gone: the states and
analyzer bras are literal arrays in :mod:`nchvsim.experiment`.  The module
stays only because the benchmark's per-layer trace (``bench/run.py``)
imports ``nchvsim.hilbert`` by name; delete it together with its entry in
that layer list.
"""
