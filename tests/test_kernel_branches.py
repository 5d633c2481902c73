"""Bit-exact freeze of the profiled kernels on both sides of every branch they take.

The per-bin kernels of ``approx`` and ``conway`` choose a formula per bin
by a mask:

* ``b``: Conway's factor is the root ``V 2n/(b + disc)`` where its linear
  coefficient ``b = V mu0 - 1`` is positive, else ``(disc - b)/2``;
* ``m``: the expectation ``m`` stands in as 1 where it vanishes;
* ``n``: the data term reads ``n ln mu`` only where the data ``n`` are
  positive;
* ``free``: Conway's Hessian profiles the factor only where it is free,
  not held at 0 (``n = 0`` with ``b > 0``).

Each case is a small model and a yield point whose masks are all true,
all false or mixed, as the case states; the states are read from the
kernel's own intermediates, so an edit of the data cannot silently drop a
branch.  Per case, the SHA-256 of the ``float.hex`` of the value, the
gradient, the Hessian and the per-bin factors and contributions is
frozen.  A change to how the kernels form their quantities must leave
every digest unchanged.

To print the table for new cases, run ``python tests/test_kernel_branches.py``.
"""

import hashlib

import numpy as np
import pytest

from templatefit import BinnedSample, CostFunction, CostStack, TemplateModel


def _model(data, comps, data_w2=None, comp_w2=None):
    d = BinnedSample.from_counts(data) if data_w2 is None else BinnedSample(data, data_w2)
    cs = tuple(
        BinnedSample.from_counts(c) if comp_w2 is None else BinnedSample(c, w2)
        for c, w2 in zip(comps, comp_w2 or comps)
    )
    return TemplateModel(edges=np.arange(d.nbins + 1.0), data=d, components=cs)


# data in every bin, every bin shared by the components
FULL = _model([12, 30, 4, 7, 19], [[9, 20, 1, 0, 4], [2, 6, 3, 8, 11]])
# no data: every Conway factor with b > 0 is held at 0
EMPTY = _model([0, 0, 0, 0], [[3, 1, 0, 2], [1, 0, 4, 2]])
# data bins 1 and 4 empty; bin 0 holds component 0 alone and bin 2 component 1
SPLIT = _model([25, 0, 3, 9, 0], [[10, 1, 0, 2, 1], [0, 1, 10, 3, 2]])
SPLIT_WEIGHTED = _model(
    [25.5, 0.0, 3.25, 9.0, 0.0],
    [[10.5, 1.25, 0.0, 2.0, 1.0], [0.0, 1.5, 10.0, 3.25, 2.5]],
    data_w2=[30.25, 0.0, 4.5, 11.0, 0.0],
    comp_w2=[[14.0, 2.0, 0.0, 3.0, 1.5], [0.0, 2.25, 13.5, 4.0, 3.5]],
)

# the stack of FULL, SPLIT and a model with two bins without template
# content, whose row is padded from 3 to 5 bins
STACK_DATA = [[12, 30, 4, 7, 19], [25, 0, 3, 9, 0], [6, 0, 2, 0, 5]]
STACK_TEMPLATES = [
    [[9, 20, 1, 0, 4], [2, 6, 3, 8, 11]],
    [[10, 1, 0, 2, 1], [0, 1, 10, 3, 2]],
    [[4, 0, 1, 0, 2], [1, 0, 3, 0, 6]],
]

# name: method, weighted, model (None: the stack), yields, mask states
CASES = {
    "conway-b-all": ("conway", False, FULL, [37.0, 52.5],
                     dict(b="all", m="all", n="all", free="all")),
    "conway-b-none": ("conway", False, FULL, [10.0, 10.0],
                      dict(b="none", m="all", n="all", free="all")),
    "conway-b-mixed": ("conway", False, FULL, [300.0, 1.0],
                       dict(b="mixed", m="all", n="all", free="all")),
    "conway-held-all": ("conway", False, EMPTY, [40.0, 50.0],
                        dict(b="all", m="all", n="none", free="none")),
    "conway-held-unheld": ("conway", False, EMPTY, [1.0, 1.0],
                           dict(b="none", m="all", n="none", free="all")),
    "conway-held-mixed": ("conway", False, SPLIT, [100.0, 2.0],
                          dict(b="mixed", m="all", n="mixed", free="mixed")),
    "conway-held-b-all": ("conway", False, SPLIT, [100.0, 40.0],
                          dict(b="all", m="all", n="mixed", free="mixed")),
    "conway-m-mixed": ("conway", False, EMPTY, [40.0, 0.0],
                       dict(b="mixed", m="mixed", n="none", free="mixed")),
    "conway-m-mixed-inf": ("conway", False, SPLIT, [100.0, 0.0],
                           dict(b="mixed", m="mixed", n="mixed", free="mixed")),
    "conway-m-none": ("conway", False, FULL, [0.0, 0.0],
                      dict(b="none", m="none", n="all", free="all")),
    "conway-weighted-b-mixed": ("conway", True, SPLIT_WEIGHTED, [100.0, 2.0],
                                dict(b="mixed", m="all", n="mixed", free="mixed")),
    "conway-weighted-b-all": ("conway", True, SPLIT_WEIGHTED, [30.0, 20.0],
                              dict(b="all", m="all", n="mixed", free="mixed")),
    "conway-weighted-b-none": ("conway", True, SPLIT_WEIGHTED, [5.0, 5.0],
                               dict(b="none", m="all", n="mixed", free="all")),
    "conway-weighted-m-mixed": ("conway", True, SPLIT_WEIGHTED, [100.0, 0.0],
                                dict(b="mixed", m="mixed", n="mixed", free="mixed")),
    "approx-n-all": ("approx", False, FULL, [37.0, 52.5], dict(m="all", n="all")),
    "approx-n-none": ("approx", False, EMPTY, [40.0, 50.0], dict(m="all", n="none")),
    "approx-n-mixed": ("approx", False, SPLIT, [100.0, 2.0], dict(m="all", n="mixed")),
    "approx-m-mixed": ("approx", False, SPLIT, [100.0, 0.0], dict(m="mixed", n="mixed")),
    "approx-m-none": ("approx", False, FULL, [0.0, 0.0], dict(m="none", n="all")),
    "approx-weighted": ("approx", True, SPLIT_WEIGHTED, [30.0, 20.0], dict(m="all", n="mixed")),
    "approx-weighted-m-mixed": ("approx", True, SPLIT_WEIGHTED, [100.0, 0.0],
                                dict(m="mixed", n="mixed")),
    "conway-stack": ("conway", False, None, [[37.0, 52.5], [100.0, 2.0], [20.0, 0.0]],
                     dict(b="mixed", m="all", n="mixed", free="mixed")),
    "conway-stack-m-mixed": ("conway", False, None, [[10.0, 10.0], [100.0, 0.0], [0.0, 0.0]],
                             dict(b="mixed", m="mixed", n="mixed", free="mixed")),
    "approx-stack": ("approx", False, None, [[37.0, 52.5], [100.0, 2.0], [20.0, 0.0]],
                     dict(m="all", n="mixed")),
    "approx-stack-m-mixed": ("approx", False, None, [[10.0, 10.0], [100.0, 0.0], [0.0, 0.0]],
                             dict(m="mixed", n="mixed")),
}


def _cost(name):
    method, weighted, model, y, _ = CASES[name]
    if model is None:
        cost = CostStack.from_counts(method, STACK_DATA, STACK_TEMPLATES)
        assert cost._runs is not None  # the third row is padded
    else:
        cost = CostFunction(method, model, weighted=weighted)
    return cost, np.asarray(y, dtype=np.float64)


def _state(mask) -> str:
    count = np.count_nonzero(mask)
    return "all" if count == mask.size else "none" if count == 0 else "mixed"


def _masks(name) -> dict:
    """The state of each branch mask over the bins the kernels see, from their intermediates."""
    cost, y = _cost(name)
    if isinstance(cost, CostFunction):  # its kernels run on its one-row stack
        cost = cost._stack
    m = cost._expectation(y)
    states = dict(m=_state(m > 0.0), n=_state(cost._npos))
    rec = cost._profile(y)
    if rec.var is not None:
        states["b"] = _state(rec.var * (cost._s * m) - 1.0 > 0.0)
        states["free"] = _state(rec.beta > 0.0)
    return states


def _hex(values) -> str:
    return " ".join(float.hex(float(v)) for v in np.ravel(values))


def _evaluate(name) -> str:
    """Value, gradient, Hessian, per-bin factors and contributions, as ``float.hex`` text."""
    cost, y = _cost(name)
    if isinstance(cost, CostStack):
        value, gradient = cost.value_and_gradient(y)
        hessian = cost.hessian(y)
        beta, contributions = cost._bins(cost._profile(y))
    else:
        value, gradient = cost._stack.value_and_gradient(y[None])
        assert cost(y) == value[0]
        hessian = cost.hessian(y)
        diag = cost.diagnostics(y)
        beta, contributions = diag.beta, diag.contributions
    parts = dict(q=value, gradient=gradient, hessian=hessian, beta=beta,
                 contributions=contributions)
    return "\n".join(f"{key}: {_hex(x)}" for key, x in parts.items())


def _digest(name) -> str:
    return hashlib.sha256(_evaluate(name).encode()).hexdigest()


FROZEN = {
    "approx-m-mixed": "2b7149d68302aa84453a38f95e483c4664091844ce4f3a13823e176a6f8e2303",
    "approx-m-none": "4d0f366ec0d75dc3f8c9dcf424565c37f88a8b42e2d6dfa40cd69fc5090ffe24",
    "approx-n-all": "527e53407df7c08153316131af3b4599a3e1c59f6e5ffea7dbcae7ab5e2fe211",
    "approx-n-mixed": "ee8bbdb81862be42295ad2e4c4696ae1cebc9b5ac8cf2a72b83b8c11e88477bb",
    "approx-n-none": "c32cdada7c3c6de78dee595706fb6cce357bf08be3629f55ba3678ef269c8d16",
    "approx-stack": "af8d59d26e0ec8212535f68993bb29a43c917bdf78104757b6778c1fbb8384ab",
    "approx-stack-m-mixed": "67ad151cb34a9d98bc30738f48cafb828542b54ae67888e5f69fe5c4c10443a8",
    "approx-weighted": "ccc232a5392056b326fdcbef97648da91014ceb7a2cc40982a89bd964cf75326",
    "approx-weighted-m-mixed": "e7b644d36376c5d20ba683ecb91fb923da3c29ef85f93dc938431de6bb56b71f",
    "conway-b-all": "62d211bbaad0f38db0adcc2db29a748beaeead8b2b5c182a56a10d6765a072b5",
    "conway-b-mixed": "fb613c9cf057ff91200a48a691b3ab32f4901b17c8b9acf3df4b745ba47710a6",
    "conway-b-none": "4191b5b55433f9bc43763719757a82d58c11df92b4c867bc27becd63b661758a",
    "conway-held-all": "b6dcc973734b37c3886de383682c71653d1d264aae09971c478bf16df0b23011",
    "conway-held-b-all": "292f4a6f66ed9fc69a824a41cc44de8e65cd00b3246ff91dd13a5c4de718c0a4",
    "conway-held-mixed": "fb625cb0a8bc00ce3f1411adaaed4aa76b5f4884ea3fd56597edcf08ac314a9e",
    "conway-held-unheld": "608241014df76a8cb6d9b2f8e0fe1b39ce7600d8db2c75add48b8fa0fab07cf1",
    "conway-m-mixed": "1e054ed057c5571d3faf033b3ef84997b4dc37f802dba1491f490fee1bfb4ad3",
    "conway-m-mixed-inf": "35300327bffa9cecca839881bd47851bb2152ba0d02c3146d85d3b57eb79404d",
    "conway-m-none": "0fb86f608c7436eef8c7f0ceafafbdc47260748fef9e1c7e922c43975cb4b8c4",
    "conway-stack": "13142dca9f3af1ef8b1f6ecc780fe46f40ce05d11a824561014ef0cf1f3c9d6f",
    "conway-stack-m-mixed": "30a159e1949156d62c1ab65e0f70d648d870ace92ce52027d4ee42a204499f4b",
    "conway-weighted-b-all": "526d413ca5d952484333ba3fd062c7c709048ac86e47e0cc38989a707bcbaa0f",
    "conway-weighted-b-mixed": "b82557f06f02b6f85dfe22c3a862bb6034b543584888b83ed36d9c822de4f370",
    "conway-weighted-b-none": "c9a730a335f5d3a9be505248ba468aa3f60412572cc7e0c7eb038c94e007cd02",
    "conway-weighted-m-mixed": "046c5f9b6fb6cfb87bf274e922d4d4290e2528d926fe199d59e8b49bad15c832",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_masks_as_stated(name):
    assert _masks(name) == CASES[name][4]


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_exact(name):
    assert _digest(name) == FROZEN[name]


def test_cases_cover_every_branch():
    assert set(CASES) == set(FROZEN)
    for method, branches in (("conway", "b m n free"), ("approx", "m n")):
        for branch in branches.split():
            seen = {c[4][branch] for c in CASES.values() if c[0] == method}
            assert seen == {"all", "none", "mixed"}, (method, branch)
    weighted = {c[0] for c in CASES.values() if c[1]}
    stacked = {c[0] for c in CASES.values() if c[2] is None}
    assert weighted == stacked == {"approx", "conway"}


if __name__ == "__main__":
    print("FROZEN = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(name)}",')
    print("}")
