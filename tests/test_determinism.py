"""Determinism guard: composites and stage reports stay byte-identical.

The digests below were recorded from the commit before the sweep and
comparison-map speed-ups (see CHANGES.md).  A performance change that
alters any serialized composite, or any check name, verdict or residual
of the composition report, on these pairs fails here.  Re-record them
only for a change that means to alter those outputs, and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from gcorr import catalog
from gcorr.composition import compose
from gcorr.io_json import serialize_instance
from gcorr.randgen import random_pair

# name -> (sha256 of serialize_instance output, sha256 of the report's
# (name, passed, residual) list)
DIGESTS = {
    'fn-compose': (
        '43d27615c855575e88fd2a2eb0ef60b1a8e1b4373f32cffc229b2206e5d1d70f',
        '1e77cfc967f5af18c24f705b855f8b12a93660bae7863f28f1c0e0771eda2be1',
    ),
    'quiver': (
        'febb5140d99a5d199a007a4eb07f2e812fb619779578d0643660f14a2275a667',
        '1e77cfc967f5af18c24f705b855f8b12a93660bae7863f28f1c0e0771eda2be1',
    ),
    'group-hom': (
        'e964dd40d352b66f6969ea13b499c13dc5d13c9065c41125ab8a998dd2bd46ba',
        'f6167188a95209e9b658fc175d2bb5a8702532157fda458b8d451a78ee0ea33c',
    ),
    'subgroup': (
        '00e09a711bb1b4c20e35e36a8e5b6bc99554c296fda41aed2ab52a4ca7b745e4',
        'f6167188a95209e9b658fc175d2bb5a8702532157fda458b8d451a78ee0ea33c',
    ),
    'induction-finite': (
        '6ab0cccae53f2d55f54070d88d5ab8db669141e68522ac3802345f23b68d18dd',
        'cc0248c484154cf3e60eb38893d42b15e8a360e065ebb0fd314a6ab3606ad8ac',
    ),
    'random-0': (
        'e7e4be69008dcdeda2e141cdaa266b3ea5a179c36decc564c5b53a136ec38a1d',
        '1e77cfc967f5af18c24f705b855f8b12a93660bae7863f28f1c0e0771eda2be1',
    ),
    'random-1': (
        '8bd5932fd0190176646bec7dd03accba243f413049cc83d2bd85b3361f49ea18',
        'f6167188a95209e9b658fc175d2bb5a8702532157fda458b8d451a78ee0ea33c',
    ),
    'random-2': (
        'aeda1a1c1ea0c4118a5674c178ceba2f162d9ef8ee4a3f28240d6b6d9ad1c5b5',
        '1e77cfc967f5af18c24f705b855f8b12a93660bae7863f28f1c0e0771eda2be1',
    ),
    'random-3': (
        'd49a0fad37aaa2597e2938e6e77742551f249f92e6a28018451c209404ec1bbc',
        'ba18c688f407e219516b76f82d3829688337fff93ac2aa6660328af20d47b5b9',
    ),
    'random-4': (
        '485f0e3ff36929e4d597d3628ea018802cf4129752cea461efcf792b6aadccdf',
        '1e77cfc967f5af18c24f705b855f8b12a93660bae7863f28f1c0e0771eda2be1',
    ),
    'random-5': (
        'fbcf630d27baf5601f01d8338fbbf573e79d1506e5086217c4d33a32bcf79261',
        '1e77cfc967f5af18c24f705b855f8b12a93660bae7863f28f1c0e0771eda2be1',
    ),
    'random-6': (
        '1ee74fda2f29d00fa50a274b3e816022529bdf0460b09a7e0bb56e41d8785b88',
        '95ed5220413ac435df95728f12f34001161a67bcbe003e1dad0fa88e63e65bae',
    ),
    'random-7': (
        '4b916cd14092a62203365907c92de6cd7ba317e12fce3f97af89e5f4b4f57cc9',
        'f6167188a95209e9b658fc175d2bb5a8702532157fda458b8d451a78ee0ea33c',
    ),
    'random-8': (
        'a924f4cf537fc942c043d24ea60165f9965465d42657b60e0469809bc59bece9',
        '06163f7347259294eafae5424c65f7314d0c38e41759f8b60854fdf5a20562c9',
    ),
    'random-9': (
        'b4004d075383bfd82105771022aba5c56b4e1aaaf76f6640dddbf3475b3be81e',
        'c109be6feb940012bc0a05d711f3d7307388cb70e37f92962752a6f4521b3319',
    ),
}


def _pair(name: str):
    if name.startswith("random-"):
        return random_pair(int(name.split("-")[1]))
    corr_x, corr_y, _ = catalog.example_pair(name)
    return corr_x, corr_y


def digests(name: str) -> tuple[str, str]:
    corr_x, corr_y = _pair(name)
    res = compose(corr_x, corr_y)
    text = serialize_instance([("composite", res.composite)])
    checks = [(c.name, c.passed, c.residual) for c in res.report.checks]
    return (
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256(repr(checks).encode()).hexdigest(),
    )


NAMES = list(catalog.EXAMPLE_NAMES) + [f"random-{i}" for i in range(10)]


@pytest.mark.parametrize("name", NAMES)
def test_composite_and_report_digests(name):
    assert digests(name) == DIGESTS[name]
