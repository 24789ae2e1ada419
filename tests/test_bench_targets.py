"""Every callable the benchmark tracer wraps still resolves in the package.

bench/tracer.py names its targets as (span, module, attribute) strings; a
rename inside trendgp would otherwise surface only as a crash of
`python3 bench/run.py --trace 1`.
"""

import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("span, module, attr", _targets())
def test_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module}.{attr} is not callable"
