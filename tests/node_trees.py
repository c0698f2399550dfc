"""Trees of node objects compiled into the flat arrays that fitting emits,
for tests that build trees by hand or grow them node by node."""

import numpy as np

from isodist import forest as forest_mod
from isodist.forest import (
    CATEGORICAL,
    HYPERPLANE,
    NUMERIC,
    TERMINAL,
    CategoricalSplit,
    HyperplaneSplit,
    NumericSplit,
    Terminal,
)

KIND = {Terminal: TERMINAL, NumericSplit: NUMERIC, CategoricalSplit: CATEGORICAL,
        HyperplaneSplit: HYPERPLANE}


def compile_trees(trees):
    """`trees`, root objects in order, as a FlatForest: one iterative
    pre-order pass per tree collects the nodes, then each stored field is
    gathered per node kind."""
    nodes, roots = [], []
    for tree in trees:
        roots.append(len(nodes))
        stack = [tree]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if type(node) is not Terminal:
                stack += (node.right, node.left)
    n = len(nodes)
    kind = np.fromiter((KIND[type(x)] for x in nodes), dtype=np.int8, count=n)
    var = np.full(n, -1, dtype=np.int32)
    threshold = np.zeros(n)
    frac = np.zeros(n)
    size = np.zeros(n)

    def of(cls):
        """The ids and the nodes of class `cls`, in pre-order."""
        return np.flatnonzero(kind == KIND[cls]), [x for x in nodes if type(x) is cls]

    idx, sel = of(Terminal)
    size[idx] = [x.size for x in sel]
    for cls in (NumericSplit, CategoricalSplit):
        idx, sel = of(cls)
        var[idx] = [x.var for x in sel]
        frac[idx] = [x.left_fraction for x in sel]
    idx, nums = of(NumericSplit)
    threshold[idx] = [x.threshold for x in nums]
    _, cats = of(CategoricalSplit)
    sides = np.zeros((len(cats), 2, max((len(x.present) for x in cats), default=1)), dtype=bool)
    for k, x in enumerate(cats):
        sides[k, 0, : len(x.present)] = x.present & x.left_set
        sides[k, 1, : len(x.present)] = x.present & ~x.left_set
    idx, hyps = of(HyperplaneSplit)
    threshold[idx] = [x.threshold for x in hyps]

    def terms(attr, dtype=np.float64):
        """One field of every hyperplane term, hyperplane after hyperplane."""
        return np.array([v for x in hyps for v in getattr(x, attr)], dtype=dtype)

    cat_coefs = [c for x in hyps for c in x.cat_coefs]
    cat_coef = np.full((len(cat_coefs), max(map(len, cat_coefs), default=1)), np.nan)
    for k, c in enumerate(cat_coefs):
        cat_coef[k, : len(c)] = c
    return forest_mod._finish(
        roots=np.array(roots + [n], dtype=np.int64),
        kind=kind,
        var=var,
        threshold=threshold,
        left_fraction=frac,
        size=size,
        sides=sides,
        num_ptr=np.cumsum([0] + [len(x.num_vars) for x in hyps], dtype=np.int32),
        num_var=terms("num_vars", np.int32),
        num_coef=terms("num_coefs"),
        num_impute=terms("num_imputes"),
        cat_ptr=np.cumsum([0] + [len(x.cat_vars) for x in hyps], dtype=np.int32),
        cat_var=terms("cat_vars", np.int32),
        cat_coef=cat_coef,
        cat_impute=terms("cat_imputes"),
    )
