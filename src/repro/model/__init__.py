"""Analytical performance models from the paper's Section 3.2."""
