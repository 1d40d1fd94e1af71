#!/usr/bin/env python3
"""Regenerate bench/references.json: 40-digit constants and mesh OBJ hashes.

The constants come from mpmath at 50 working digits, independent of the
package's own AGM and quadrature code:

    K, E   complete elliptic integrals at modulus sqrt(3)/2 (parameter 3/4)
    V      (2/3)(K + 2E)                      volume at r = 1
    I      int_0^{pi/2} arccos(cos t/(1 + cos t)) dt
    edge   3 pi^2/2 - 4 I                     edge integral at r = 1
    M      3K + edge                          integral of mean curvature
    b      M / (2 pi)                         mean width

The OBJ hashes are those of the program as it is when this script runs: each
resolution the mesh workload can request is exported once through the CLI
and hashed, so a later change that alters a single byte of the export shows
as a failed request.  Regenerate them only together with a deliberate,
documented change of the OBJ format.

Usage: python3 bench/make_references.py      (from the repository root)
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import MESH_RESOLUTIONS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "references.json"


def constants() -> dict[str, str]:
    mp.mp.dps = 50
    k = mp.ellipk(mp.mpf(3) / 4)  # mpmath takes the parameter m = k^2
    e = mp.ellipe(mp.mpf(3) / 4)
    i = mp.quad(lambda t: mp.acos(mp.cos(t) / (1 + mp.cos(t))), [0, mp.pi / 2])
    edge = mp.mpf(3) / 2 * mp.pi**2 - 4 * i
    m = 3 * k + edge
    values = {
        "pi": mp.pi,
        "K": k,
        "E": e,
        "V": mp.mpf(2) / 3 * (k + 2 * e),
        "I": i,
        "edge": edge,
        "M": m,
        "b": m / (2 * mp.pi),
    }
    return {name: mp.nstr(v, 40, strip_zeros=False) for name, v in values.items()}


def mesh_hashes() -> dict[str, dict[str, object]]:
    tmp = ROOT / ".bench_tmp" / f"refs-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out: dict[str, dict[str, object]] = {}
    try:
        for n in MESH_RESOLUTIONS:
            obj = tmp / "mesh.obj"
            subprocess.run(
                [sys.executable, "-m", "oloid", "mesh", "--resolution", str(n),
                 "--out", str(obj)],
                cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            data = obj.read_bytes()
            out[str(n)] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            obj.unlink()
            print(f"mesh {n}: {out[str(n)]['sha256']}", file=sys.stderr)
    finally:
        tmp.rmdir()
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return out


def main() -> None:
    refs = {
        "constants": constants(),
        "mesh_obj": mesh_hashes(),
        "generated_with": {
            "mpmath": mp.__version__,
            "python": platform.python_version(),
        },
    }
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
