"""Independent LP reference: solve a ``minecc`` LinearProgram with HiGHS.

scipy is used only here, to check the values the program reports; it is
imported on first use, after the timed part of a run.
"""

from __future__ import annotations

import math


def lp_value(lp) -> float:
    """Optimal objective of ``lp`` (in its own sense) as found by scipy's HiGHS."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    rows = {"<=": ([], [], [], []), "=": ([], [], [], [])}
    for con in lp.constraints:
        sign = -1.0 if con.rel == ">=" else 1.0
        data, cols, ptr, rhs = rows["=" if con.rel == "=" else "<="]
        for j, a in con.coeffs:
            data.append(sign * a)
            cols.append(j)
        ptr.append(len(data))
        rhs.append(sign * con.rhs)

    def matrix(key):
        data, cols, ptr, rhs = rows[key]
        if not rhs:
            return None, None
        indptr = np.concatenate(([0], ptr))
        return csr_matrix((data, cols, indptr), shape=(len(rhs), lp.num_vars)), np.array(rhs)

    a_ub, b_ub = matrix("<=")
    a_eq, b_eq = matrix("=")
    sign = 1.0 if lp.sense == "min" else -1.0
    bounds = [(lo, None if math.isinf(hi) else hi) for lo, hi in zip(lp.lower, lp.upper)]
    res = linprog(sign * np.array(lp.objective), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP solve failed: {res.message}")
    return lp.constant + sign * res.fun
