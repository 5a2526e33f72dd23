"""Reference constructions that the package does not build itself."""
import numpy as np


def projectors(s) -> np.ndarray:
    """(m, n, n) eigenprojectors F_r = V_r V_r^T of a Spectrum, one per
    distinct eigenvalue, each formed from its group's eigenvector columns."""
    blocks = (s.eigenvectors[:, lo:lo + k]
              for lo, k in zip(s.group_starts, s.multiplicities))
    return np.array([block @ block.T for block in blocks])
