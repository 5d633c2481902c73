"""Bit-exact freeze of the cost functions and their diagnostics.

Every value below is the ``float.hex`` of what ``CostFunction.__call__``
and ``CostFunction.diagnostics`` return at fixed parameter points.  A
refactor of the per-bin evaluation must leave all of them unchanged: the
statistical tests only check values to a tolerance, while ensembles and
the fit records built on them depend on every bit.

To print the table for new cases, run ``python tests/test_frozen_bits.py``.
"""

import numpy as np
import pytest

from templatefit import BinnedSample, CostFunction, TemplateModel


def _model(data, comps, data_w2=None, comp_w2=None):
    d = BinnedSample.from_counts(data) if data_w2 is None else BinnedSample(data, data_w2)
    cs = []
    for i, c in enumerate(comps):
        if comp_w2 is None:
            cs.append(BinnedSample.from_counts(c))
        else:
            cs.append(BinnedSample(c, comp_w2[i]))
    edges = np.arange(d.nbins + 1, dtype=float)
    return TemplateModel(edges=edges, data=d, components=tuple(cs))


# two components over six bins: bin 4 has no template content, bin 2 no data
PLAIN = _model([12, 30, 0, 7, 3, 19], [[9, 20, 1, 0, 0, 4], [2, 6, 3, 8, 0, 11]])

# three weighted components; data bin 3 is empty, bin 5 has no template content
WEIGHTED = _model(
    [14.5, 22.25, 3.0, 0.0, 9.75, 2.0, 31.5],
    [[6.5, 11.0, 1.5, 2.0, 0.0, 0.0, 3.25], [0.5, 4.0, 0.0, 6.5, 9.0, 0.0, 12.0],
     [2.0, 0.0, 0.75, 1.25, 3.5, 0.0, 5.5]],
    data_w2=[18.75, 30.125, 4.5, 0.0, 14.0625, 4.0, 40.25],
    comp_w2=[
        [9.25, 15.5, 2.25, 3.0, 0.0, 0.0, 5.0625],
        [0.25, 6.0, 0.0, 9.5, 13.75, 0.0, 18.0],
        [4.0, 0.0, 0.5625, 1.5625, 6.25, 0.0, 8.0],
    ],
)

# component 0 fills bins 0-2, component 1 bins 2-5: a zero second yield
# leaves bins 3-5 without expectation ("dead" for Conway's factor)
DEAD_EMPTY = _model([8, 15, 6, 0, 0, 0], [[5, 10, 2, 0, 0, 0], [0, 0, 4, 7, 3, 9]])
DEAD_FILLED = _model([8, 15, 6, 2, 0, 0], [[5, 10, 2, 0, 0, 0], [0, 0, 4, 7, 3, 9]])
DEAD_WEIGHTED = _model(
    [8.5, 15.0, 6.25, 0.0, 0.0, 0.0],
    [[5.5, 10.0, 2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 4.0, 7.5, 3.0, 9.0]],
    data_w2=[10.25, 16.0, 8.0, 0.0, 0.0, 0.0],
    comp_w2=[[7.25, 12.5, 2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 5.0, 9.75, 3.0, 11.5]],
)

# a Conway bin with no data and a negative quadratic coefficient: the
# discarded root branch is 0/0 there
ZERO_ROOT = _model([0, 5, 9], [[40, 2, 3]])


def _exact_point(model, yields, seed):
    cost = CostFunction("exact", model)
    rng = np.random.default_rng(seed)
    betas = rng.uniform(0.6, 1.5, size=cost.nparams - len(yields))
    return np.concatenate([yields, betas])


CASES = {
    "approx-plain": ("approx", False, PLAIN, [37.0, 52.5]),
    "approx-plain-zero-yield": ("approx", False, PLAIN, [0.0, 71.25]),
    "approx-weighted": ("approx", True, WEIGHTED, [41.0, 28.5, 19.75]),
    "conway-plain": ("conway", False, PLAIN, [37.0, 52.5]),
    "conway-weighted": ("conway", True, WEIGHTED, [41.0, 28.5, 19.75]),
    "conway-dead-empty": ("conway", False, DEAD_EMPTY, [29.0, 0.0]),
    "conway-dead-filled": ("conway", False, DEAD_FILLED, [29.0, 0.0]),
    "conway-dead-weighted": ("conway", True, DEAD_WEIGHTED, [29.5, 0.0]),
    "conway-zero-root": ("conway", False, ZERO_ROOT, [20.0]),
    "approx-zero-root": ("approx", False, ZERO_ROOT, [20.0]),
    "exact-plain-unit": ("exact", False, PLAIN, [37.0, 52.5] + [1.0] * 9),
    "exact-plain": ("exact", False, PLAIN, _exact_point(PLAIN, [37.0, 52.5], 4)),
    "exact-three": ("exact", False, WEIGHTED, _exact_point(WEIGHTED, [41.0, 28.5, 19.75], 5)),
}


def _hex(values) -> str:
    return " ".join(float.hex(float(v)) for v in np.ravel(values))


def _evaluate(name):
    method, weighted, model, params = CASES[name]
    cost = CostFunction(method, model, weighted=weighted)
    p = np.asarray(params, dtype=np.float64)
    diag = cost.diagnostics(p)
    return {
        "q": float.hex(cost(p)),
        "beta": _hex(diag.beta),
        "contributions": _hex(diag.contributions),
    }


FROZEN = {
    "approx-plain": {
        "q": "0x1.3cfff741d6b72p+3",
        "beta": (
            "0x1.e4b9f4d7b59e1p-1 0x1.ec19542090bc2p-1 0x1.8c32fb4418c33p-2 "
            "0x1.5d1745d1745d1p-1 nan 0x1.c2f3397107b45p-1"
        ),
        "contributions": (
            "0x1.ec2fccd26a740p-5 0x1.2d946b2588e3ep-4 0x1.e62c0cd2b0603p+2 "
            "0x1.c92418b85ddecp+0 0x0.0p+0 0x1.8fc2a3caa9ddap-2"
        ),
    },
    "approx-plain-zero-yield": {
        "q": "0x1.92d5779bef919p+4",
        "beta": (
            "0x1.75d75d75d75d7p+0 0x1.642c8590b2164p+0 0x1.702e05c0b8170p-2 "
            "0x1.1c71c71c71c72p-1 nan 0x1.a74b7a2a04ab3p-1"
        ),
        "contributions": (
            "0x1.34bfe2249f379p+2 0x1.eb7aa08cfe359p+2 0x1.05dcce1489b03p+3 "
            "0x1.d3bcb4879c12cp+1 0x0.0p+0 0x1.ac1b2a89fb7b2p-1"
        ),
    },
    "approx-weighted": {
        "q": "0x1.c252686657ac0p+3",
        "beta": (
            "0x1.004e388c294d8p+0 0x1.00a19049d0138p+0 0x1.c9c07ec8f5d2ap-1 "
            "0x1.843ed7e39669ap-2 0x1.b56e6a29863a9p-1 nan "
            "0x1.2a2f03d07a837p+0"
        ),
        "contributions": (
            "0x1.b81af244dfc00p-17 0x1.b4630d915aa95p-14 0x1.3e624f92486fap-5 "
            "0x1.a396c6f9f7d06p+3 0x1.6cc39c2191e5cp-2 0x0.0p+0 "
            "0x1.2162c888b1711p-1"
        ),
    },
    "approx-zero-root": {
        "q": "0x1.61ce5745ec584p+5",
        "beta": (
            "0x1.6276276276276p-1 0x1.3627627627627p+1 0x1.6276276276277p+1"
        ),
        "contributions": (
            "0x1.d6b00e52d5cc1p+4 0x1.386d5c52e0112p+2 0x1.3da2924895c08p+3"
        ),
    },
    "conway-dead-empty": {
        "q": "0x1.6e96c4a399a1cp-1",
        "beta": (
            "0x1.ebaab3031a1a9p-1 0x1.d7e1ba44b78b1p-1 0x1.6a2a011ccadb9p+0 "
            "nan nan nan"
        ),
        "contributions": (
            "0x1.95006bcb8f47ep-7 0x1.857a60e2ad00cp-4 0x1.379376d815c48p-1 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0"
        ),
    },
    "conway-dead-filled": {
        "q": "inf",
        "beta": (
            "0x1.ebaab3031a1a9p-1 0x1.d7e1ba44b78b1p-1 0x1.6a2a011ccadb9p+0 "
            "nan nan nan"
        ),
        "contributions": (
            "0x1.95006bcb8f47ep-7 0x1.857a60e2ad00cp-4 0x1.379376d815c48p-1 "
            "inf 0x0.0p+0 0x0.0p+0"
        ),
    },
    "conway-dead-weighted": {
        "q": "0x1.832e7000ea91ap-1",
        "beta": (
            "0x1.e3d720742d92cp-1 0x1.d994f0b416044p-1 0x1.697b197bd5870p+0 "
            "nan nan nan"
        ),
        "contributions": (
            "0x1.39e7afb11abe4p-6 0x1.0ffef3cdd04a4p-4 0x1.575f5409a7b26p-1 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0"
        ),
    },
    "conway-plain": {
        "q": "0x1.773c9ec22cacbp+2",
        "beta": (
            "0x1.e37ca3beba675p-1 0x1.eb4cac71d6c1ep-1 0x0.0p+0 "
            "0x1.43fc07ec375a1p-1 nan 0x1.bf01d8714cfbap-1"
        ),
        "contributions": (
            "0x1.d6a8a8041c8b8p-5 0x1.20fb1c9fcc28fp-4 0x1.efc9412b9af14p+1 "
            "0x1.7fdb2f8ef2b38p+0 0x0.0p+0 0x1.72ff4861b1d74p-2"
        ),
    },
    "conway-weighted": {
        "q": "0x1.c8d394bc578ecp+2",
        "beta": (
            "0x1.004eecb0c62bcp+0 0x1.00a4344b93e24p+0 0x1.c660208831622p-1 "
            "0x0.0p+0 0x1.abcfd90e10692p-1 nan "
            "0x1.2905e14919789p+0"
        ),
        "contributions": (
            "0x1.b09a973e135cdp-17 0x1.a90197d0e4fe2p-14 0x1.2b56b3e26cdfcp-5 "
            "0x1.8dbac3b02eb7ap+2 0x1.42ff047598bb2p-2 0x0.0p+0 "
            "0x1.2482a240fdc88p-1"
        ),
    },
    "conway-zero-root": {
        "q": "0x1.6dd2cff12860ap+5",
        "beta": (
            "0x1.1c71c71c71c72p-1 0x1.e214e7840d5bep+0 0x1.04175067ac2b9p+1"
        ),
        "contributions": (
            "0x1.ba781948b0fcep+4 0x1.766e45aeb181fp+2 0x1.8723ea5be6c7ep+3"
        ),
    },
    "exact-plain": {
        "q": "0x1.37c9b7e9a1cb7p+5",
        "beta": (
            "0x1.72e14ffc275f5p+0 0x1.0f68ed1ecb12ep+0 0x1.7a86cbf7a57a1p+0 "
            "0x1.5873016158b53p-1 0x1.2588e79582178p+0 0x1.e0af5d584f443p-1 "
            "nan 0x1.525ba8625d40fp+0 nan "
            "nan 0x1.839f56c3d87aep-1 0x1.626cbd8a9bbecp+0"
        ),
        "contributions": (
            "0x1.cea29b9618eeap+1 0x1.acf8a5fc8bc92p+2 0x1.8c4f5e8544250p+3 "
            "0x1.42ab4fb44d154p+3 0x0.0p+0 0x1.8c0e6f1253a6ap+2"
        ),
    },
    "exact-plain-unit": {
        "q": "0x1.23a5b5fba6e2fp+4",
        "beta": (
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
            "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 "
            "nan 0x1.0000000000000p+0 nan "
            "nan 0x1.0000000000000p+0 0x1.0000000000000p+0"
        ),
        "contributions": (
            "0x1.0acdb48187100p-3 0x1.4d73cc7cb8800p-3 0x1.95a5a5a5a5a5ap+3 "
            "0x1.12f0ac1ca1aa0p+2 0x0.0p+0 0x1.ecc6a3f5e4d00p-1"
        ),
    },
    "exact-three": {
        "q": "0x1.b196f1ac52bfap+4",
        "beta": (
            "0x1.53129abd34266p+0 0x1.53bfe307b86b6p+0 0x1.1054bd05ec060p+0 "
            "0x1.b6e5b3e0559cap-1 0x1.4c0d1fe0902a2p-1 nan "
            "0x1.e3db3bbcb3446p-1 nan 0x1.ef6ca8f4a0cd4p-1 "
            "0x1.4810144609315p-1 0x1.49aae4c29a116p-1 0x1.7fcf67c108afep+0 "
            "nan 0x1.2fe7e558df33cp+0 0x1.9f43262759b81p-1 "
            "nan nan nan "
            "0x1.fb9fb3754edaep-1 0x1.7a0d7091d6400p+0 0x1.686cc79ddc25ap+0"
        ),
        "contributions": (
            "0x1.8013f2a6eb588p+0 0x1.b7e462435d762p+0 0x1.493d1508a5266p-4 "
            "0x1.327c31c0f07dfp+4 0x1.c42a089273678p+0 0x0.0p+0 "
            "0x1.707ae7f46ec90p+1"
        ),
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bit_exact(name):
    assert _evaluate(name) == FROZEN[name]


def test_cases_cover_every_branch():
    assert set(CASES) == set(FROZEN)
    assert FROZEN["conway-dead-filled"]["q"] == "inf"
    assert "nan" in FROZEN["conway-dead-empty"]["beta"]
    exact_betas = FROZEN["exact-plain"]["beta"].split()
    assert any(b not in ("nan", "0x1.0000000000000p+0") for b in exact_betas)


def _table() -> str:
    lines = ["FROZEN = {"]
    for name in sorted(CASES):
        lines.append(f'    "{name}": {{')
        for key, value in _evaluate(name).items():
            words = value.split()
            if len(words) == 1:
                lines.append(f'        "{key}": "{value}",')
                continue
            lines.append(f'        "{key}": (')
            for i in range(0, len(words), 3):
                tail = "" if i + 3 >= len(words) else " "
                lines.append(f'            "{" ".join(words[i:i + 3])}{tail}"')
            lines.append("        ),")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(_table())
