"""Annotation-consistent weakly supervised instance segmentation.

A desk-scale implementation of joint pseudo-label generation and
prediction learning: a noise-conditioned conditional distribution over
proposal labelings (unary scoring, boundary-aware pairwise refinement,
annotation-consistency enforcement, greedy inference) and a fully
factorized prediction distribution, trained together by minimizing a
dissimilarity coefficient with block coordinate descent and direct loss
minimization. The modules are imported by name; `cli` is the entry point.
"""

__version__ = "0.1.0"
