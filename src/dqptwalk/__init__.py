"""Split-step quantum walk quench toolkit.

Simulates sudden parameter quenches of one-dimensional two-band walks
(unitary, mixed-state, and lossy PT-symmetric variants), locates the
nonanalyticities of the return-rate function, tracks the quantized winding of
the Pancharatnam phase, and replays the interferometric measurement with its
full instrument-noise budget.
"""
__version__ = "0.1.0"
