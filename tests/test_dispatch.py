"""Polynomial kernels and reports do not depend on numpy's SIMD dispatch.

The same work runs here and in a subprocess whose numpy may not use its
AVX-512 loops.  Integer powers are chains of multiplications, which every
CPU and SIMD width rounds the same way, so the kernel values and the report
of a polynomial `check --flow` are the same bytes.  On a host without
AVX-512 dispatch the switch changes nothing, and the test is skipped.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symflow
from symflow.cli import main
from symflow.numeric import compile_components
from symflow.parser import parse

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

SPEC = """\
dim=2
F1=y+x^3
F2=-x^3 + x*y^2
S1=-x
S2=y
box=-2,2,-2,2
"""


def _digest(data) -> str:
    return hashlib.sha256(data).hexdigest()


def work(spec_path: str) -> dict:
    """Digests of numpy's exp, of a polynomial column kernel on fixed rows
    and of a polynomial reversibility report with the flow comparison."""
    rng = np.random.default_rng(0)
    Z = rng.uniform(-2, 2, (2, 4096))
    (col,) = compile_components([parse("x^3 + y^5 - 3*x*y^4", 2)])(Z)
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(SPEC)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", spec_path, "--kind", "reversibility", "--flow", "--seed", "3"])
    return {
        "exp": _digest(np.exp(Z).tobytes()),
        "kernel": _digest(col.tobytes()),
        "report": _digest(f"{code}\n{out.getvalue()}".encode()),
    }


def test_polynomial_bits_do_not_follow_simd_dispatch(tmp_path):
    here = work(str(tmp_path / "here.spec"))
    src = os.path.dirname(os.path.dirname(symflow.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(__file__), src])
    script = "import json, sys, test_dispatch; print(json.dumps(test_dispatch.work(sys.argv[1])))"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "there.spec")],
                          env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode and "CPU feature" in proc.stderr:
        pytest.skip("this numpy refuses the switch: " + proc.stderr.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    there = json.loads(proc.stdout)
    if there["exp"] == here["exp"]:
        pytest.skip("this host's numpy has no AVX-512 dispatch to switch off")
    assert there["kernel"] == here["kernel"]
    assert there["report"] == here["report"]
