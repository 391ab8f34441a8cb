"""Joint spectral clustering trained with optimal-transport targets.

The package couples a small encoder, an off-diagonal affinity objective,
and a prototype clustering head, supervising both with transport plans
computed by Sinkhorn scaling on detached similarities. Polar-factor
orthogonalization with a straight-through backward keeps embeddings near
column-orthonormal during training. Classical baselines (k-means, shallow
spectral clustering) and clustering metrics are included for comparison;
the exact transport oracles used for verification live with the tests.
"""

__version__ = "0.1.0"
