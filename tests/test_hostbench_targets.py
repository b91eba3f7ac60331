"""Every layer the host benchmark traces still exists under its name.

``hostbench/spans.py`` wraps public functions of every layer at run time
and resolves each ``TARGETS`` entry by name.  A renamed method, or a ring
op that stops routing through the traced kernel entry points, would
silently drop a layer from the per-layer trace.  This test loads the
table without executing anything from ``hostbench/`` beyond its source,
and without writing into that directory, then checks each target
resolves the way ``install`` resolves it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "hostbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("hostbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _targets(spans):
    return [target for _, target, _ in spans.TARGETS]


def test_every_target_resolves_like_install(spans):
    for target in _targets(spans) + ["repro.sweep.memo:Memo.get_or_compute"]:
        owner, attr = spans._resolve(target)
        if isinstance(owner, type):
            # install() reads the raw attribute from the class __dict__.
            assert attr in owner.__dict__, target
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            assert isinstance(fn, types.FunctionType), target
        else:
            fn = getattr(owner, attr)
            assert isinstance(fn, types.FunctionType), target
            # _rebind() patches every repro module global bound to it.
            assert any(
                value is fn for _, _, value in spans._repro_globals()
            ), target


def test_ring_layer_enters_the_traced_kernel_entry_points(spans, monkeypatch):
    """NTTs and conversions of a ring op reach the patched names."""
    from repro.kernels import conversion, ntt
    from repro.numth import find_ntt_primes
    from repro.ring import Representation, RnsBasis, RnsPolynomial, mod_up

    seen = []
    for owner, name in (
        (ntt.BatchNttKernel, "forward_rows"),
        (ntt.BatchNttKernel, "inverse_rows"),
    ):
        original = owner.__dict__[name]

        def traced(self, rows, _original=original, _name=name):
            seen.append((_name, spans._rows((self, rows), {}, None)))
            return _original(self, rows)

        monkeypatch.setattr(owner, name, traced)
    original_convert = conversion.new_limbs_matrix

    def traced_convert(*args):
        seen.append(("new_limbs_matrix", None))
        return original_convert(*args)

    monkeypatch.setattr(
        "repro.kernels.new_limbs_matrix", traced_convert
    )
    primes = find_ntt_primes(30, 16, 3)
    basis = RnsBasis(16, primes[:2])
    poly = RnsPolynomial(
        basis, np.arange(32).reshape(2, 16), Representation.COEFF
    ).to_eval()
    mod_up(poly, primes[2:])
    assert ("forward_rows", 2) in seen
    assert ("inverse_rows", 2) in seen
    assert ("new_limbs_matrix", None) in seen
    assert ("forward_rows", 1) in seen  # the new limb, counted in rows
