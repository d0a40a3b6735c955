"""Measurement-error estimation: features, the graph network, training, and
the heuristic weighting baselines."""
