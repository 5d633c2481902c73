"""Bit-exact freeze of the cost functions and their diagnostics.

Every value below is the ``float.hex`` of what ``CostFunction.__call__``
and ``CostFunction.diagnostics`` return at fixed parameter points.  A
refactor of the per-bin evaluation must leave all of them unchanged: the
statistical tests only check values to a tolerance, while ensembles and
the fit records built on them depend on every bit.

To print the table for new cases, run ``python tests/test_frozen_bits.py``.

The records of two ``run_study`` calls are frozen too, one of ``approx``
and ``conway`` and one of ``exact``, by the SHA-256 of their CSV: every
bit of the lockstep loop that fits them shows there.  So are a weighted
and an unweighted ``approx`` and ``conway`` fit of
:func:`~templatefit.fit`, and an unweighted ``exact`` one: yields, errors,
covariance, ``qmin``, status, evaluation count and the per-bin ``betas``
at the minimum.
"""

import hashlib

import numpy as np
import pytest

from templatefit import (
    BinnedSample,
    CostFunction,
    TemplateModel,
    ToyConfig,
    draw,
    fit,
    rng_stream,
    run_study,
    to_model,
)
from templatefit.study import records_to_csv


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

# two weighted components over eight bins; both weighted fits converge inside
FIT_WEIGHTED = _model(
    [31.5, 48.25, 62.0, 40.75, 22.5, 13.0, 6.25, 2.0],
    [[20.5, 34.0, 41.25, 27.0, 12.5, 6.0, 2.5, 0.75],
     [3.0, 5.5, 9.25, 14.0, 17.5, 19.0, 15.25, 11.0]],
    data_w2=[40.25, 60.0, 80.5, 52.0, 30.25, 18.5, 9.0, 3.25],
    comp_w2=[
        [28.0, 45.5, 60.25, 38.0, 17.75, 9.5, 3.0, 1.0],
        [4.5, 8.0, 12.25, 21.0, 26.5, 27.75, 22.0, 16.5],
    ],
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


# the seed-4 toy of the default configuration: unweighted, 15 bins
TOY = ToyConfig(seed=4)
TOY_MODEL = to_model(TOY, draw(TOY, rng_stream(4, 0)))


def _fit(method, model=FIT_WEIGHTED, weighted=True):
    r = fit(model, method, weighted=weighted)
    return {
        "yields": _hex(r.yields),
        "errors": _hex(r.yield_errors),
        "covariance": _hex(r.covariance),
        "qmin": float.hex(r.qmin),
        "status": r.status,
        "n_evaluations": r.n_evaluations,
        "beta": _hex(r.betas.beta),
        "contributions": _hex(r.betas.contributions),
    }


def _toy_fit(method):
    return _fit(method, TOY_MODEL, weighted=False)


FROZEN_FITS = {
    "approx": {
        "yields": (
            "0x1.a858555ef9950p+7 0x1.d1f5e88417b96p+3"
        ),
        "errors": (
            "0x1.ce938fe6ce0f5p+4 0x1.b8afb93726ac8p+3"
        ),
        "covariance": (
            "0x1.a1ec7839d1d9dp+9 -0x1.7f3a02fcb3cbdp+7 -0x1.7f3a02fcb3cbdp+7 "
            "0x1.7b4e42a62a2c4p+7"
        ),
        "qmin": "0x1.30fb6cfd62d5ap-2",
        "status": "converged",
        "n_evaluations": 14,
        "beta": (
            "0x1.0496dca1a9a97p+0 0x1.f12c5b213ee84p-1 0x1.0003e6b075b9dp+0 "
            "0x1.f91bf230d1c38p-1 0x1.07aad07657b71p+0 0x1.091300235c501p+0 "
            "0x1.026df2af8c977p+0 0x1.e5e53bcf6c15fp-1"
        ),
        "contributions": (
            "0x1.2d3394cca820ep-7 0x1.60bbebbe101bap-5 0x1.d0d690034ba54p-23 "
            "0x1.40538f959c5b0p-7 0x1.4cb567b57563fp-5 0x1.f4635933474b3p-5 "
            "0x1.25f45a0bafeecp-8 0x1.09797cad27b12p-3"
        ),
    },
    "conway": {
        "yields": (
            "0x1.a87ae151eea5ep+7 0x1.c18fbabbcf132p+3"
        ),
        "errors": (
            "0x1.e6eb35411738ap+4 0x1.f39635e5f859bp+3"
        ),
        "covariance": (
            "0x1.cf10f326fa5fdp+9 -0x1.b2b05d7a16adcp+7 -0x1.b2b05d7a16adcp+7 "
            "0x1.e7797720dd82ep+7"
        ),
        "qmin": "0x1.d8ab55e925fecp-3",
        "status": "converged",
        "n_evaluations": 11,
        "beta": (
            "0x1.04c56d8017324p+0 0x1.f06a3adb70d71p-1 0x1.0018640599b6cp+0 "
            "0x1.f8972c3f13c7ep-1 0x1.0ab48cb88c066p+0 0x1.1056ac4247c06p+0 "
            "0x1.05ef970942796p+0 0x1.ca8e2bab88d6cp-1"
        ),
        "contributions": (
            "0x1.22a390eb35378p-7 0x1.436b542f700acp-5 0x1.bb4a55f5c34b2p-18 "
            "0x1.db42ea9e696e0p-8 0x1.1af110532df66p-5 0x1.85df42a03073cp-5 "
            "0x1.9121fc48a5b9ap-8 0x1.64172a8bb552ap-4"
        ),
    },
}
FROZEN_TOY_FITS = {
    "approx": {
        "yields": (
            "0x1.ab56e440b3a43p+7 0x1.8de13951597e4p+9"
        ),
        "errors": (
            "0x1.3338dcf764cfep+5 0x1.5fac44032cc22p+6"
        ),
        "covariance": (
            "0x1.70b16e9ac6c0ep+10 -0x1.cbd9dd8b57724p+9 -0x1.cbd9dd8b57724p+9 "
            "0x1.e319d66c2b123p+12"
        ),
        "qmin": "0x1.faaa884ad1833p+2",
        "status": "converged",
        "n_evaluations": 9,
        "beta": (
            "0x1.c4275546ac6e9p-1 0x1.10d86b403da54p+0 0x1.63b9d0a5a5b45p+0 "
            "0x1.1a615bbaea776p+0 0x1.7d65932b00d67p+0 0x1.ece1ca006f5c1p-1 "
            "0x1.09757dcce7e8dp+0 0x1.fef3e15f32299p-1 0x1.dd4531c12dbe9p-1 "
            "0x1.5fbcf3f202dc0p+0 0x1.1cfff23103707p-1 0x1.9abc2855b2220p-1 "
            "0x1.2f295ab9280cfp+0 0x1.4c7fefe3d9588p-1 0x1.3cda4b0047969p-1"
        ),
        "contributions": (
            "0x1.253a1c50f03d6p-2 0x1.7ed7595ed98a0p-5 0x1.14b495f00adc0p+0 "
            "0x1.6e6e359d1fe40p-4 0x1.37a49dd3c9b7fp+0 0x1.090db25929278p-6 "
            "0x1.390f5c79d905ap-5 0x1.3b3d793949780p-12 0x1.cc55ae41942aep-4 "
            "0x1.46621b01d5ed2p-1 0x1.29c1c76d3a9dcp+1 0x1.0804eb4ec3a63p-2 "
            "0x1.a145a7441e810p-4 0x1.1fac54ff79584p-1 0x1.24beaba27cab5p+0"
        ),
    },
    "conway": {
        "yields": (
            "0x1.9ead2d9cfb635p+7 0x1.ab0dee108bc09p+9"
        ),
        "errors": (
            "0x1.4d5c01d30a678p+5 0x1.8bfab9c5e1b0ap+6"
        ),
        "covariance": (
            "0x1.b2187dd058c41p+10 -0x1.0bc587e929134p+10 -0x1.0bc587e929134p+10 "
            "0x1.323fd76c01e1bp+13"
        ),
        "qmin": "0x1.bf9378d540242p+2",
        "status": "converged",
        "n_evaluations": 11,
        "beta": (
            "0x1.a6ebafa874178p-1 0x1.00362b45b4528p+0 0x1.4ba2720f22e05p+0 "
            "0x1.0921552947b33p+0 0x1.62198ab8c0a0ep+0 0x1.ce50a5361295fp-1 "
            "0x1.050ccf158ec44p+0 0x1.018b23ad8d942p+0 0x1.cd01b0c02aca0p-1 "
            "0x1.4b416e1f398aep+0 0x1.fb2de03202826p-2 0x1.7e26a77058a75p-1 "
            "0x1.1c5786f2298cap+0 0x1.2f0d7ad618a2ep-1 0x1.1ee269210f466p-1"
        ),
        "contributions": (
            "0x1.21e6cf8349791p-1 0x1.00e868eb47386p-17 0x1.9cbd77892f90fp-1 "
            "0x1.770737a96e176p-7 0x1.069bee9227eb0p+0 0x1.abe265f68837dp-4 "
            "0x1.f7610b4a800c8p-8 0x1.05f4e25271863p-9 0x1.488f052f87aa4p-3 "
            "0x1.d2c878fe610ffp-2 0x1.e44fc64b26403p+0 0x1.67428b6bd604dp-2 "
            "0x1.5564880a72876p-5 0x1.1261a39b7d37fp-1 0x1.0878626381679p+0"
        ),
    },
    "exact": {
        "yields": (
            "0x1.aaa696bb7fcc2p+7 0x1.8dd65ffea3243p+9"
        ),
        "errors": (
            "0x1.48a5d73f42a53p+5 0x1.625992b70162cp+6"
        ),
        "covariance": (
            "0x1.a5e96301474e8p+10 -0x1.c4bd0c454361ap+9 -0x1.c4bd0c454361ap+9 "
            "0x1.ea7bd91977295p+12"
        ),
        "qmin": "0x1.f5907693d16f6p+2",
        "status": "converged",
        "n_evaluations": 1338,
        "beta": (
            "nan 0x1.c4323cccfe112p-1 nan "
            "0x1.10df001ef78ddp+0 nan 0x1.63c275d2f07acp+0 "
            "nan 0x1.1a682a67e3622p+0 nan "
            "0x1.7d6ec180e080ep+0 nan 0x1.ecedaf733044fp-1 "
            "0x1.050747e9e01dap+0 0x1.0f215cc2a5ba3p+0 0x1.ff96bc7d27cd7p-1 "
            "0x1.fecf513c70024p-1 0x1.eec7b01b1d91bp-1 0x1.d11ad5fe72632p-1 "
            "0x1.1c1f60850c8d2p+0 0x1.66eb10427847dp+0 nan "
            "0x1.1d06d5e98475bp-1 nan 0x1.9ac614ea5bd27p-1 "
            "nan 0x1.2f30a6a9eb4e2p+0 nan "
            "0x1.4c87f79bb6f1fp-1 nan 0x1.3ce1f0c29114ap-1"
        ),
        "contributions": (
            "0x1.24cb2e334eeaap-2 0x1.7ffd8de22cc78p-5 0x1.14e01a46eb24cp+0 "
            "0x1.6f26746fd68f0p-4 0x1.37cda796f5758p+0 0x1.07c075e61d640p-6 "
            "0x1.02e7422f7a19ap-5 0x1.20a375cd350e0p-14 0x1.7148c0eb519a2p-4 "
            "0x1.2c98ceff1bf5ap-1 0x1.29ac1d99b7b8cp+1 0x1.07cdb40a98a6bp-2 "
            "0x1.a1c125ed1ed30p-4 0x1.1f8ef774005ffp-1 0x1.24a410da6c516p+0"
        ),
    },
}


@pytest.mark.parametrize("method", sorted(FROZEN_FITS))
def test_weighted_fit_bit_exact(method):
    assert _fit(method) == FROZEN_FITS[method]


@pytest.mark.parametrize("method", sorted(FROZEN_TOY_FITS))
def test_toy_fit_bit_exact(method):
    assert _toy_fit(method) == FROZEN_TOY_FITS[method]


# batch 0 of perfbench's ensemble-fast workload at seed 101
STUDY = (ToyConfig(seed=101_000_000), (50, 10000), 10, ("approx", "conway"))
STUDY_DIGEST = "026795276d4845ec6951c7a709af5e03e62bf08bea3c7361d4967dd38a4f5c5f"

# batch 0 of its ensemble-exact workload: the same toy, one per template size
EXACT_STUDY = (ToyConfig(seed=101_000_000), (50, 10000), 1, ("exact",))
EXACT_STUDY_DIGEST = "9945f622c7642cb1b5cd4a787e3337019be1eca5597c12e4c910bc1114925087"


def test_study_records_bit_exact():
    records = run_study(*STUDY)
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == STUDY_DIGEST


def test_exact_study_records_bit_exact():
    records = run_study(*EXACT_STUDY)
    assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == EXACT_STUDY_DIGEST


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
    for table, evaluate, methods in (
        ("FROZEN_FITS", _fit, ("approx", "conway")),
        ("FROZEN_TOY_FITS", _toy_fit, ("approx", "conway", "exact")),
    ):
        lines.append(f"{table} = {{")
        for method in methods:
            lines.append(f'    "{method}": {{')
            for key, value in evaluate(method).items():
                words = value.split() if isinstance(value, str) else [value]
                if len(words) == 1:
                    lines.append(f'        "{key}": {value!r},'.replace("'", '"'))
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
