"""Serialization of parameters, ciphertexts and keys.

JSON-compatible dictionaries (arbitrary-precision integers are native in
Python's JSON).  The interesting part is switching-key serialization: a
*compressed* key stores only the ``b`` rows plus one PRNG seed per digit —
the uniform ``a`` rows are re-expanded on load, exactly the mechanism the
paper uses to halve switching-key DRAM traffic (Section 3.2, "KeySwitch
Key Compression").
"""

from __future__ import annotations

import json
from typing import Dict

from repro.params import CkksParams
from repro.ring import Representation, RnsBasis, RnsPolynomial
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.keys import SecretKey, SwitchingKey


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
def params_to_dict(params: CkksParams) -> Dict:
    return {
        "log_n": params.log_n,
        "log_q": params.log_q,
        "max_limbs": params.max_limbs,
        "dnum": params.dnum,
        "fft_iter": params.fft_iter,
        "log_special": params.log_special,
        "eval_mod_depth": params.eval_mod_depth,
        "bit_precision": params.bit_precision,
        "word_bytes": params.word_bytes,
    }


def params_from_dict(data: Dict) -> CkksParams:
    return CkksParams(**data)


# ----------------------------------------------------------------------
# Polynomials / ciphertexts
# ----------------------------------------------------------------------
def _poly_to_dict(poly: RnsPolynomial) -> Dict:
    return {
        "moduli": list(poly.basis.moduli),
        "limbs": poly.limbs.tolist(),
        "representation": poly.representation.value,
    }


def _poly_from_dict(data: Dict, degree: int) -> RnsPolynomial:
    basis = RnsBasis(degree, data["moduli"])
    return RnsPolynomial(
        basis, data["limbs"], Representation(data["representation"])
    )


def ciphertext_to_dict(ct: Ciphertext) -> Dict:
    return {
        "c0": _poly_to_dict(ct.c0),
        "c1": _poly_to_dict(ct.c1),
        "scale": ct.scale,
    }


def ciphertext_from_dict(data: Dict, context: CkksContext) -> Ciphertext:
    degree = context.degree
    return Ciphertext(
        c0=_poly_from_dict(data["c0"], degree),
        c1=_poly_from_dict(data["c1"], degree),
        scale=data["scale"],
    )


def plaintext_to_dict(pt: Plaintext) -> Dict:
    return {"coeffs": list(pt.coeffs), "scale": pt.scale}


def plaintext_from_dict(data: Dict) -> Plaintext:
    return Plaintext(coeffs=list(data["coeffs"]), scale=data["scale"])


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def secret_key_to_dict(key: SecretKey) -> Dict:
    return {"coeffs": list(key.coeffs)}


def secret_key_from_dict(data: Dict, context: CkksContext) -> SecretKey:
    return SecretKey(context, data["coeffs"])


def switching_key_to_dict(key: SwitchingKey, compressed: bool = True) -> Dict:
    """Serialise a switching key, optionally in compressed (seed) form.

    Compression requires the key to have been generated with seeds (the
    default); it stores the ``b`` rows and the per-digit seeds only.
    """
    if compressed and not key.is_compressed:
        raise ValueError(
            "key was generated without seeds; cannot serialise compressed"
        )
    payload: Dict = {
        "compressed": bool(compressed),
        "b_rows": [_poly_to_dict(b) for b, _ in key.digits],
    }
    if compressed:
        payload["seeds"] = list(key.seeds)
    else:
        payload["a_rows"] = [_poly_to_dict(a) for _, a in key.digits]
    return payload


def switching_key_from_dict(data: Dict, context: CkksContext) -> SwitchingKey:
    degree = context.degree
    b_rows = [_poly_from_dict(b, degree) for b in data["b_rows"]]
    if data["compressed"]:
        basis = context.raised_basis(context.max_limbs)
        seeds = list(data["seeds"])
        a_rows = [
            RnsPolynomial(
                basis,
                context.sample_uniform_rows(basis, seed=seed),
                Representation.EVAL,
            )
            for seed in seeds
        ]
    else:
        seeds = None
        a_rows = [_poly_from_dict(a, degree) for a in data["a_rows"]]
    return SwitchingKey(digits=list(zip(b_rows, a_rows)), seeds=seeds)


# ----------------------------------------------------------------------
# JSON convenience
# ----------------------------------------------------------------------
def dumps(data: Dict) -> str:
    return json.dumps(data, separators=(",", ":"))


def loads(text: str) -> Dict:
    return json.loads(text)


def serialized_size(data: Dict) -> int:
    """Bytes of the compact JSON encoding (for size comparisons)."""
    return len(dumps(data).encode())
