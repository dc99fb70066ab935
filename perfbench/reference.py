"""Independent reference answers for the benchmark, built with numpy alone.

Nothing here imports ``pagerank_select``.  A :class:`Reference` is built from
an instance file's JSON: it builds each transition matrix straight from the
edge lists, enumerates the feasible cube itself, and solves every
first-passage system with ``np.linalg.solve``.  :func:`check` then compares a
solve report (the dict ``SolveReport.to_json()`` returns) with it.  Values are
compared, never selections, because tied optima are legitimate.
"""

from __future__ import annotations

import json

import numpy as np

# Relative floating-point error allowed on a return time on top of the
# solver's gap tolerance.  At damping 0.85 the dense solve and the reference
# agree to about 1e-15 relative, so this leaves a wide margin and still sits
# six orders below the smallest error the checker must catch (1e-6).
FP_REL = 1e-12


class Reference:
    """Exhaustive optimum of one instance file, with its feasible set."""

    def __init__(self, path):
        with open(path) as fh:
            data = json.load(fh)
        self.n = int(data["n"])
        self.target = int(data["target"])
        self.damping = float(data.get("damping", 0.85))
        self.fixed = np.array(data["edges"], dtype=int).reshape(-1, 2)
        self.fragile = np.array(data["fragile"], dtype=int).reshape(-1, 2)
        self.z_count = len(self.fragile)
        self.rows = _constraint_rows(data.get("constraints"), self.z_count)

        codes = np.arange(1 << self.z_count)
        shifts = np.arange(self.z_count - 1, -1, -1)
        cube = (codes[:, None] >> shifts) & 1  # lexicographic order
        self.feasible = cube[self._feasible_mask(cube)]
        self._values = np.array([self.return_time(y) for y in self.feasible])
        self.optimum = float(self._values.min()) if len(self._values) else float("inf")

    def _feasible_mask(self, points) -> np.ndarray:
        mask = np.ones(len(points), dtype=bool)
        for coeffs, sense, rhs in self.rows:
            lhs = points @ coeffs
            if sense == "<=":
                mask &= lhs <= rhs
            elif sense == ">=":
                mask &= lhs >= rhs
            else:
                mask &= lhs == rhs
        return mask

    def is_feasible(self, y) -> bool:
        y = np.asarray(y, dtype=int)
        if y.shape != (self.z_count,) or not np.isin(y, (0, 1)).all():
            return False
        return bool(self._feasible_mask(y[None, :])[0])

    def transition(self, y) -> np.ndarray:
        n, c = self.n, self.damping
        adj = np.zeros((n, n))
        adj[self.fixed[:, 0], self.fixed[:, 1]] = 1.0
        on = self.fragile[np.asarray(y, dtype=bool)]
        adj[on[:, 0], on[:, 1]] = 1.0
        degree = adj.sum(axis=1, keepdims=True)
        walk = c * adj / np.maximum(degree, 1.0) + (1.0 - c) / n
        return np.where(degree > 0, walk, 1.0 / n)

    def return_time(self, y) -> float:
        """Expected first return time to the target, by one dense solve."""
        P = self.transition(y)
        others = np.arange(self.n) != self.target
        A = np.eye(self.n - 1) - P[np.ix_(others, others)]
        h = np.linalg.solve(A, np.ones(self.n - 1))
        return 1.0 + float(P[self.target, others] @ h)

    def kac_return_time(self, y) -> float:
        """``1 / pi[target]`` from a direct solve for the stationary law."""
        P = self.transition(y)
        A = (np.eye(self.n) - P).T
        A[-1, :] = 1.0
        rhs = np.zeros(self.n)
        rhs[-1] = 1.0
        pi = np.linalg.solve(A, rhs)
        return 1.0 / float(pi[self.target])


def _constraint_rows(obj, z_count):
    if obj is None:
        return []
    rows = [
        (np.array(r["coeffs"], dtype=int), r["sense"], int(r["rhs"]))
        for r in obj.get("rows", [])
    ]
    card = obj.get("cardinality")
    if card is not None:
        rows.append((np.ones(z_count, dtype=int), card["sense"], int(card["k"])))
    return rows


def _close(a: float, b: float, slack: float) -> bool:
    return abs(a - b) <= slack + FP_REL * max(abs(a), abs(b))


def check(ref: Reference, report: dict, eps: float) -> list[str]:
    """Every way ``report`` disagrees with the reference; empty when it passes."""
    problems = []
    lower = list(report["lower_bounds"])
    upper = list(report["upper_bounds"])
    value = report["best_value"]
    if report["status"] != "optimal":
        problems.append(f"status {report['status']!r}, not 'optimal'")
    if not lower or not upper or upper[-1] - lower[-1] > eps:
        problems.append(f"final gap above eps {eps}: lower {lower[-1:]} upper {upper[-1:]}")
    y = report["best_y"]
    if not ref.is_feasible(y):
        problems.append(f"best_y {y} violates the constraints")
    else:
        fr = ref.return_time(y)
        if not _close(fr, value, 0.0):
            problems.append(f"best_value {value!r} but the return time at best_y is {fr!r}")
        kac = ref.kac_return_time(y)
        if not _close(kac, fr, 0.0):
            problems.append(f"Kac: 1/pi[target] = {kac!r} but the return time is {fr!r}")
    if not _close(value, ref.optimum, eps):
        problems.append(f"best_value {value!r} but the optimum is {ref.optimum!r}")
    for k, lb in enumerate(lower):
        if lb > ref.optimum + eps + FP_REL * abs(ref.optimum):
            problems.append(f"lower bound {k} = {lb!r} above the optimum {ref.optimum!r}: invalid cut")
    for k in range(1, len(lower)):
        if lower[k] < lower[k - 1] - FP_REL * abs(lower[k - 1]):
            problems.append(f"lower bound decreased at round {k}: {lower[k - 1]!r} -> {lower[k]!r}")
        if upper[k] > upper[k - 1]:
            problems.append(f"upper bound increased at round {k}: {upper[k - 1]!r} -> {upper[k]!r}")
    rounds = report["iterations"]
    if rounds > len(ref.feasible) + 1:
        problems.append(f"{rounds} rounds exceed |F| + 1 = {len(ref.feasible) + 1}")
    budget = ref.z_count * max(1, rounds)
    if report["gamma_calls_total"] > budget:
        problems.append(f"{report['gamma_calls_total']} oracle queries exceed |Z| x rounds = {budget}")
    return problems
