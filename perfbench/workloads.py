"""Seeded inputs and the command sequence of each workload.

Every workload is a closed loop with one client.  One *op* is one pass of
the loop: a main command, then a follow-up command, each a call of
``ma_singular.cli.main(argv)`` on a generated config file.  The program
sees the generated inputs only as ``curve.literal`` and ``field.literal``
config; nothing here imports the package under test.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

#: Tolerance of acceptance criterion 3 (PDE residual), used for headroom.
RESIDUAL_TOLERANCE = 1e-3

DEFAULT_BOX = {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "z": [-1.0, 1.0],
               "p": [-4.0, 4.0], "q": [-4.0, 4.0]}
PURE_ONE = {"A": "0", "B": "0", "C": "0", "E": "1", "box": DEFAULT_BOX}

# (1/8)(4 sin 2u, 4 cos 2u + 4 sin 2u - cos 4u): the paper's doubly traced
# example with curvature zeros.
REMARK42 = {
    "alpha_cos": [0.0, 0.0, 0.0, 0.0, 0.0],
    "alpha_sin": [0.0, 0.0, 0.5, 0.0, 0.0],
    "beta_cos": [0.0, 0.0, 0.5, 0.0, -0.125],
    "beta_sin": [0.0, 0.0, 0.5, 0.0, 0.0],
}


@dataclass(frozen=True)
class Command:
    """One CLI call of an op and what its output must show."""

    name: str                      # construct | roundtrip | verify | plot
    config: dict | None            # written to a config file; None: no file
    outdir: str                    # subdirectory of the op directory
    expect: dict = field(default_factory=dict)


def convex_curve(rng: np.random.Generator) -> dict:
    """Strictly convex, negatively oriented trig curve from a support function.

    h(t) = 1 + sum_{k=2..K} (a_k cos kt + b_k sin kt) with
    sum (k^2 - 1)(|a_k| + |b_k|) = s < 1, so h + h'' > 0.  The curve
    (h cos t - h' sin t, -(h sin t + h' cos t)) is then an exact trig
    polynomial of degree K + 1.  s is drawn from [0.05, 0.25]: at s ~ 0.33
    the sampled annulus no longer holds three ratio-2 radii, which the
    roundtrip extraction needs (probed with all weight on k = 2).
    """
    K = int(rng.integers(2, 5))
    ks = np.arange(2, K + 1)
    budget = rng.uniform(0.05, 0.25)
    weights = budget * rng.dirichlet(np.ones(2 * ks.size))
    signs = rng.choice([-1.0, 1.0], size=2 * ks.size)
    a = signs[:ks.size] * weights[:ks.size] / (ks * ks - 1)
    b = signs[ks.size:] * weights[ks.size:] / (ks * ks - 1)

    n = K + 2
    ac, as_, bc, bs = (np.zeros(n) for _ in range(4))
    ac[1], bs[1] = 1.0, -1.0
    # Product-to-sum expansion of h cos t - h' sin t and -(h sin t + h' cos t)
    # for one term a cos kt + b sin kt of h.
    for k, ak, bk in zip(ks, a, b):
        ac[k + 1] += 0.5 * (1 - k) * ak
        ac[k - 1] += 0.5 * (1 + k) * ak
        as_[k + 1] += 0.5 * (1 - k) * bk
        as_[k - 1] += 0.5 * (1 + k) * bk
        bc[k + 1] += 0.5 * (1 - k) * bk
        bc[k - 1] -= 0.5 * (1 + k) * bk
        bs[k + 1] -= 0.5 * (1 - k) * ak
        bs[k - 1] += 0.5 * (1 + k) * ak
    return {"alpha_cos": ac.tolist(), "alpha_sin": as_.tolist(),
            "beta_cos": bc.tolist(), "beta_sin": bs.tolist()}


def shifted_curve(coeffs: dict, c: float) -> dict:
    """Coefficients of u -> gamma(u + c) for a cosine/sine coefficient dict."""
    k = np.arange(len(coeffs["alpha_cos"]))
    ck, sk = np.cos(k * c), np.sin(k * c)
    out = {}
    for comp in ("alpha", "beta"):
        cos_c = np.asarray(coeffs[comp + "_cos"])
        sin_c = np.asarray(coeffs[comp + "_sin"])
        out[comp + "_cos"] = (cos_c * ck + sin_c * sk).tolist()
        out[comp + "_sin"] = (-cos_c * sk + sin_c * ck).tolist()
    return out


def remark42_field(b: float) -> dict:
    """A = C = 0, B = b p^2, E = 1 + b^2 p^4, so D = A C - B^2 + E = 1."""
    return {"A": "0", "B": f"{b!r}*p^2", "C": "0",
            "E": f"1 + {b * b!r}*p^4", "box": DEFAULT_BOX}


def _convex_expect():
    return {"classification": {"regular": True, "strictly_convex": True,
                               "embedded": True, "orientation": "negative"}}


def _construct_convex(rng):
    cfg = {"curve": {"literal": convex_curve(rng)},
           "field": {"literal": PURE_ONE},
           "emit": {"csv": True, "json": True, "svg": False}}
    expect = _convex_expect()
    expect.update(levels=151, files=("strip.csv", "patch.csv", "report.json"))
    return [Command("construct", cfg, "main", expect),
            Command("plot", None, "main")]


def _roundtrip_convex(rng):
    cfg = {"curve": {"literal": convex_curve(rng)},
           "field": {"literal": PURE_ONE},
           "roundtrip": {"reflected": True},
           "emit": {"csv": False, "json": True, "svg": False}}
    expect = _convex_expect()
    expect.update(levels=151, files=("report.json",))
    verify = {"emit": {"csv": False, "json": True, "svg": False}}
    return [Command("roundtrip", cfg, "main", expect),
            Command("verify", verify, "follow",
                    {"levels": 151, "files": ("report.json",)})]


def _construct_remark42(rng):
    b = float(rng.uniform(0.5, 2.0))
    shift = float(rng.uniform(0.0, 2.0 * math.pi))
    cfg = {"curve": {"literal": shifted_curve(REMARK42, shift)},
           "field": {"literal": remark42_field(b)},
           "march": {"n_u": 256, "R": 0.05},
           "emit": {"csv": True, "json": True, "svg": False}}
    # The curve touches itself, so it is not embedded.
    expect = {"classification": {"embedded": False}, "levels": 51,
              "files": ("strip.csv", "patch.csv", "report.json")}
    return [Command("construct", cfg, "main", expect),
            Command("plot", None, "main")]


@dataclass(frozen=True)
class Workload:
    """A named op generator; BENCHMARK.json records why each one is there."""

    name: str
    stream: int          # keeps seeded streams of different workloads apart
    make_op: Callable[[np.random.Generator], list]

    def ops(self, seed: int):
        """Endless seeded op stream: the same seed gives the same inputs."""
        rng = np.random.default_rng([seed, self.stream])
        while True:
            yield self.make_op(rng)


WORKLOADS = {
    w.name: w for w in (
        Workload("construct-convex", 1, _construct_convex),
        Workload("roundtrip-convex", 2, _roundtrip_convex),
        Workload("construct-remark42", 3, _construct_remark42),
    )
}
