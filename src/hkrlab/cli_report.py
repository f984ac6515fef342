"""Batch verification driver.

Loads a configuration (flags or JSON), runs named check suites, and emits
JSON and Markdown reports mapping each check to the mathematical claim it
verifies.  Theorem-backed checks are pass-required (nonzero exit on
failure); recursion-probe runs in the general case are informational and
never affect the exit status.  With a fixed seed and configuration the
JSON report is byte-identical across runs: timing is reported only in the
Markdown rendering.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .coeff import CoeffAlgebra
from .exterior_core import (
    ExteriorContext,
    four_standard_sign_functions,
    koszul_dual_check,
    sign_census,
)
from .extension_dg import build_extension
from .ak_complexes import (
    build_p_complex,
    build_q_complex,
    contraction_realization_check,
    p_q_battery,
)
from .chain_core import homology, homology_dims
from .hkr_local import (
    LocalModel,
    compare_hkr_ac,
    cycle_class_local,
    dual_hkr_sign,
    zeta_checks,
)
from .cech_twist import (
    NERVE_LIBRARY,
    Nerve,
    NerveError,
    TwistFamily,
    build_cochain,
    canonical_representative,
    cech_delta,
    cech_complex,
    circle_nerve,
    cochain_module,
    cohomologous,
    combine_representatives,
    conjecture_probe,
    delta_matrix,
    divisor_class,
    eta_recursion,
    hom_lam_module,
    l_operator,
    random_hom_twist,
    random_wedge_cochains,
    sphere_nerve,
)
from .modules import StructuralError


# the highest rank any suite runs: COMPARISON_MODELS and probe_general_case
# stop at rank 3, and a higher configured rank would run the same cases
SUITE_MAX_RANK = 3
MAX_DEGREE_BOUND = 4
# the rank cap of a local model given as JSON (parse_model_json)
MODEL_MAX_RANK = 4


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    suite: str = "all"
    max_rank: int = 3
    degree_bound: int = 3
    nerve: str = "circle"
    seed: int = 0
    out: str = ""
    fmt: str = "json"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # f.type is the annotation string; an exact match rejects bools as ints
            if type(value).__name__ != f.type:
                raise ConfigError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        self._nerve = None
        # rank 2 is the lowest rank every suite covers: below it some checks
        # would run nothing and still pass
        if self.max_rank < 2:
            raise ConfigError("max rank must be at least 2")
        if self.max_rank > SUITE_MAX_RANK:
            raise ConfigError(f"max rank capped at {SUITE_MAX_RANK}")
        if self.degree_bound < 0:
            raise ConfigError("degree bound must not be negative")
        if self.degree_bound > MAX_DEGREE_BOUND:
            raise ConfigError(f"degree bound capped at {MAX_DEGREE_BOUND}")
        if self.fmt not in ("json", "md"):
            raise ConfigError(f"format must be 'json' or 'md', got {self.fmt!r}")

    @classmethod
    def from_json(cls, path):
        try:
            data = json.loads(Path(path).read_text())
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err.strerror}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed config {path}: line {err.lineno} col {err.colno}")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def load_nerve(self):
        """The configured nerve, built on first use and shared by every check."""
        if self._nerve is not None:
            return self._nerve
        if self.nerve in NERVE_LIBRARY:
            n = NERVE_LIBRARY[self.nerve]()
        else:
            try:
                n = Nerve.from_json(Path(self.nerve).read_text())
            except FileNotFoundError:
                raise ConfigError(f"unknown nerve {self.nerve!r}")
            except OSError as err:
                raise ConfigError(f"cannot read nerve {self.nerve!r}: {err.strerror}")
            except json.JSONDecodeError as err:
                raise ConfigError(f"malformed nerve file: line {err.lineno}")
            except NerveError as err:
                raise ConfigError(f"malformed nerve file: {err}")
        self._nerve = n
        return n


def parse_model_json(data):
    """Model specification {m, r, D, chi}: chi has m rows (one per polynomial
    generator) and r columns of polynomial strings; omitted or null, it is the
    standard splitting.  Malformed or oversized input is a ConfigError, raised
    before the model is built."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed model: line {err.lineno} col {err.colno}")
    if not isinstance(data, dict):
        raise ConfigError("model must be a JSON object")
    bounds = {"m": (1, MODEL_MAX_RANK), "r": (1, MODEL_MAX_RANK), "D": (2, MAX_DEGREE_BOUND)}
    unknown = set(data) - set(bounds) - {"chi"}
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    for key, (lo, hi) in bounds.items():
        if key not in data:
            raise ConfigError(f"model key {key!r} is missing")
        value = data[key]
        if type(value) is not int:  # a bool is not an int here
            raise ConfigError(f"model field {key!r} must be int, got {value!r}")
        if not lo <= value <= hi:
            raise ConfigError(f"model field {key!r} must lie in {lo}..{hi}, got {value}")
    m, r, chi = data["m"], data["r"], data.get("chi")
    if chi is not None and not (
        type(chi) is list
        and len(chi) == m
        and all(type(row) is list and len(row) == r and all(type(e) is str for e in row) for row in chi)
    ):
        raise ConfigError(f"model field 'chi' must be an {m} x {r} list of lists of polynomial strings")
    D = data["D"]
    if chi is not None:
        A = CoeffAlgebra.polynomial(m, D)
        try:
            chi = [[A.parse(e) for e in row] for row in chi]
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"model field 'chi' holds a malformed polynomial: {err}")
        if any(e.degree() >= D for row in chi for e in row):
            raise ConfigError(f"model field 'chi' holds an entry of degree {D} or more")
    return LocalModel(m, r, D, chi=chi)


# -- individual checks --------------------------------------------------------


def _rng(config, name):
    return random.Random(f"{config.seed}:{name}")


def _ranks(config, lowest=2):
    """Ranks from lowest up to the configured max rank."""
    return list(range(lowest, config.max_rank + 1))


def _comparison_models(config):
    """The local models (m, r, D) whose rank the configured max rank admits."""
    return [model for model in COMPARISON_MODELS if model[1] <= config.max_rank]


def check_sign_census(config):
    ranks = _ranks(config)
    for r in ranks:
        expected = {tuple(f.values) for f in four_standard_sign_functions(r)}
        for side in ("left", "right"):
            got = {tuple(f.values) for f in sign_census(r, side)}
            if got != expected or len(got) != 4:
                return "fail", {"rank": r, "side": side, "census_size": len(got)}
    return "pass", {"ranks": ranks, "count_per_side": len(got)}


def check_koszul_duality(config):
    ranks = _ranks(config, lowest=1)
    for s in ranks:
        ctx = ExteriorContext(CoeffAlgebra.rationals(), s)
        rng = _rng(config, f"koszul:{s}")
        for trial in range(100):
            phi = [Fraction(rng.randint(-6, 6)) for _ in range(s)]
            ok, details = koszul_dual_check(ctx, phi)
            if not ok:
                return "fail", {"rank": s, "phi": [str(x) for x in phi]}
    return "pass", {"ranks_checked": ranks, "seeds": 100}


def check_dg_battery(config):
    ranks = _ranks(config, lowest=1)
    for algebra in (CoeffAlgebra.rationals(), CoeffAlgebra.polynomial(1, 2)):
        for r in ranks:
            failure = dg_battery_failure(build_extension(algebra, r))
            if failure is not None:
                return "fail", failure
    return "pass", {"ranks": ranks}


def dg_battery_failure(ext):
    """The first failing claim of the dg battery on one extension, else None.

    On the label x monomial basis of every degree: the split product against
    its defining formula, Leibniz and associativity, then d o d = 0.
    """
    algebra, r = ext.algebra, ext.rank
    basis = {}
    for k in range(r + 1):
        M = ext.lam_b(k + 1)
        basis[k] = [
            _keyed(M.basis_vec(lab, algebra.monomial(mono)))
            for lab in M.labels
            for mono in algebra.monomials
        ]
    for k in range(r + 1):
        for l in range(r + 1 - k):
            claim = _dg_block_failure(ext, basis, k, l)
            if claim is not None:
                return {"claim": claim, "rank": r}
    for k in range(1, r + 1):
        if not ext.hat_d(k - 1).compose(ext.hat_d(k)).is_zero():
            return {"claim": "square-zero differential", "rank": r, "degree": k}
    return None


def _keyed(v):
    """v with its exact contents as a dict key: each label with its Poly terms."""
    return v, frozenset((lab, frozenset(c.terms.items())) for lab, c in v.data.items())


def _dg_block_failure(ext, basis, k, l):
    """The first claim that fails for x of degree k and y of degree l, else
    None; basis holds the keyed basis of each degree."""
    # Products are kept for this block only, keyed by the degrees and the
    # exact operands: a product is read back only for the very operands it
    # was computed on, never derived by linearity.
    products = {}

    def star(k1, l1, u, v):
        key = (k1, l1, u[1], v[1])
        uv = products.get(key)
        if uv is None:
            uv = products[key] = ext.star(k1, l1, u[0], v[0])
        return uv

    r = ext.rank
    dk, dl, dkl = ext.hat_d(k), ext.hat_d(l), ext.hat_d(k + l)
    zero = ext.lam_b(k + l).zero()
    dys = [_keyed(dl.apply(y)) for y, _ in basis[l]]
    # y z for every basis pair the associativity check reaches
    yzs = {
        m: [[_keyed(star(l, m, y, z)) for z in basis[m]] for y in basis[l]]
        for m in range(r + 1 - k - l)
    }
    for x in basis[k]:
        dx = _keyed(dk.apply(x[0]))
        for yi, y in enumerate(basis[l]):
            xy = star(k, l, x, y)
            if xy != ext.star_abstract(k, l, x[0], y[0]):
                return "split product"
            rhs = star(k - 1, l, dx, y) if k else zero
            if l:
                rhs = rhs + star(k, l - 1, x, dys[yi]).scale((-1) ** k)
            if dkl.apply(xy) != rhs:
                return "Leibniz"
            xy = _keyed(xy)
            for m, yz in yzs.items():
                for z, y_z in zip(basis[m], yz[yi]):
                    if star(k + l, m, xy, z) != star(k, l + m, x, y_z):
                        return "associativity"
    return None


def check_ak_battery(config):
    ranks = _ranks(config, lowest=1)
    for algebra in (CoeffAlgebra.rationals(), CoeffAlgebra.polynomial(1, 2)):
        for r in ranks:
            ext = build_extension(algebra, r)
            results = p_q_battery(ext)
            if not all(results.values()):
                return "fail", {"rank": r, "results": {k: bool(v) for k, v in results.items()}}
            P, Q = build_p_complex(ext), build_q_complex(ext)
            dims_p, dims_q = homology_dims(P), homology_dims(Q)
            adim = algebra.dimension()
            if dims_p.get(0) != adim or any(v for n, v in dims_p.items() if n < 0):
                return "fail", {"claim": "resolution of the base", "rank": r}
            if dims_q.get(-r) != adim or any(v for n, v in dims_q.items() if n != -r):
                return "fail", {"claim": "dual resolution", "rank": r}
            if not (P.is_homogeneous() and Q.is_homogeneous()):
                return "fail", {"claim": "homogeneous differentials", "rank": r}
            # per grade: H^0(P) is the grade-g piece of A; H^{-r}(Q) is it shifted
            # by r, since the top power sits in label grade r
            for g in range(algebra.degree_bound + r + 2):
                piece = sum(1 for mono in algebra.monomials if sum(mono) == g)
                top_piece = sum(1 for mono in algebra.monomials if sum(mono) == g - r)
                slice_p = {n: homology(P, n, grade=g).dim for n in range(-r, 1)}
                slice_q = {n: homology(Q, n, grade=g).dim for n in range(-r, 1)}
                if slice_p != {n: piece if n == 0 else 0 for n in range(-r, 1)}:
                    return "fail", {"claim": "resolution of the base, per grade", "rank": r, "grade": g}
                if slice_q != {n: top_piece if n == -r else 0 for n in range(-r, 1)}:
                    return "fail", {"claim": "dual resolution, per grade", "rank": r, "grade": g}
    return "pass", {"ranks": ranks}


def _random_chi(m, r, D, rng):
    A = CoeffAlgebra.polynomial(m, D)
    return [
        [
            sum(
                (A.monomial(e, rng.randint(-2, 2)) for e in A.monomials if sum(e) <= 1),
                A.zero(),
            )
            for _ in range(r)
        ]
        for _ in range(m)
    ]


COMPARISON_MODELS = [(1, 1, 3), (1, 2, 3), (2, 2, 3), (1, 3, 3)]


def check_hkr_maps(config):
    models = _comparison_models(config)
    for (m, r, D) in models:
        rng = _rng(config, f"hkr:{m}:{r}:{D}")
        splittings = [None] + [_random_chi(m, r, D, rng) for _ in range(3)]
        for chi in splittings:
            model = LocalModel(m, r, D, chi=chi)
            checks = model.gamma_checks()
            if not all(checks.values()):
                return "fail", {"model": (m, r, D), "gamma": {k: bool(v) for k, v in checks.items()}}
            zc = zeta_checks(model.ext, window=D)
            if not all(zc.values()):
                return "fail", {"model": (m, r, D), "zeta": {k: bool(v) for k, v in zc.items()}}
            if not compare_hkr_ac(model):
                return "fail", {"model": (m, r, D), "claim": "route comparison"}
    return "pass", {"models": models, "splittings_per_model": 4}


def check_dual_signs(config):
    ranks = _ranks(config, lowest=1)
    for r in ranks:
        out = dual_hkr_sign(r)
        expected = [(-1) ** (((r - i) * (r - i - 1)) // 2) for i in range(r + 1)]
        if not out["ok"] or out["signs"] != expected:
            return "fail", {"rank": r, "got": out["signs"], "claims": out["claims"]}
    return "pass", {"ranks": ranks}


def _wedge_families(ext, nerve, rng):
    """A seeded pair [lam, mu] of wedge-type twist families, lam drawn first."""
    return [TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng)) for _ in range(2)]


def _last_level_families(ext, nerve, rng):
    """A seeded pair [lam, mu] of twist families sharing the levels below the
    top one, which are drawn first, then lam's top level, then mu's."""
    shared = [random_hom_twist(ext, nerve, n, rng) for n in range(ext.rank - 1)]
    return [TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, ext.rank - 1, rng)]) for _ in range(2)]


def check_comparison_wedge(config):
    nerve = config.load_nerve()
    ranks = _ranks(config)
    for r in ranks:
        ext = build_extension(CoeffAlgebra.rationals(), r)
        rng = _rng(config, f"wedge:{r}")
        for trial in range(25):
            lam, mu = _wedge_families(ext, nerve, rng)
            try:
                delta = delta_matrix(ext, nerve, lam, mu, "wedge")
            except StructuralError as err:
                return "fail", {"rank": r, "trial": trial, "claim": str(err)}
            if not delta.diagonal_is_identity():
                return "fail", {"rank": r, "trial": trial, "claim": "diagonal"}
            cs_c = [canonical_representative(nerve, c) for c in lam.wedge_data]
            ds_c = [canonical_representative(nerve, d) for d in mu.wedge_data]
            zetas = eta_recursion(ext, nerve, cs_c, ds_c)
            # spot values of the recursion
            if not (zetas[(1, 0)] - (cs_c[0] - ds_c[0])).is_zero():
                return "fail", {"rank": r, "trial": trial, "claim": "first spot value"}
            want21 = (cs_c[0] - ds_c[0] + cs_c[1] - ds_c[1]).scale(Fraction(1, 2))
            if not (zetas[(2, 1)] - want21).is_zero():
                return "fail", {"rank": r, "trial": trial, "claim": "second spot value"}
            for i in range(r + 1):
                for j in range(i):
                    if i - j > nerve.depth:
                        continue
                    want = l_operator(ext, nerve, i, j, zetas[(i, j)])
                    if not cohomologous(nerve, delta.entry(i, j), want):
                        return "fail", {"rank": r, "trial": trial, "entry": (i, j)}
    return "pass", {"ranks": ranks, "trials_per_rank": 25}


def check_comparison_last_level(config):
    nerve = config.load_nerve()
    ranks = _ranks(config)
    for r in ranks:
        ext = build_extension(CoeffAlgebra.rationals(), r)
        rng = _rng(config, f"last:{r}")
        for trial in range(5):
            lam, mu = _last_level_families(ext, nerve, rng)
            try:
                delta = delta_matrix(ext, nerve, lam, mu, "last-level")
            except StructuralError as err:
                return "fail", {"rank": r, "trial": trial, "claim": str(err)}
            want = (lam.cocycles[r - 1].cochain - mu.cocycles[r - 1].cochain).scale(
                Fraction(1, r)
            )
            if not cohomologous(nerve, delta.entry(r, r - 1), want):
                return "fail", {"rank": r, "trial": trial, "entry": (r, r - 1)}
            for i in range(r + 1):
                for j in range(i):
                    if (i, j) == (r, r - 1) or i - j > nerve.depth:
                        continue
                    hom = hom_lam_module(ext, j, i)
                    if not cohomologous(nerve, delta.entry(i, j), cochain_module(nerve, hom, i - j).zero()):
                        return "fail", {"rank": r, "trial": trial, "entry": (i, j)}
    return "pass", {"ranks": ranks, "trials_per_rank": 5}


def check_cycle_class(config):
    models = _comparison_models(config)
    for (m, r, D) in models:
        # the chase reads only the splitting-independent half of the model
        qs = cycle_class_local(LocalModel(m, r, D))
        if qs[0] != 1 or any(q != 0 for q in qs[1:]):
            return "fail", {"model": (m, r, D), "qs": [str(q) for q in qs]}
    nerve = circle_nerve()
    ext = build_extension(CoeffAlgebra.rationals(), 1)
    C = cech_complex(nerve, ext.lam_i(1))
    H = homology(C, 1)
    gen = combine_representatives(nerve, 1, ext.lam_i(1), [1], H.representatives)
    noise = build_cochain(nerve, 0, ext.lam_i(1), {(0,): ext.lam_i(1).basis_vec((0,), 2)})
    zero = cochain_module(nerve, ext.lam_i(1), 1).zero()
    cases = {"zero": zero, "generator": gen, "coboundary": cech_delta(nerve, noise)}
    for name, delta_in in cases.items():
        q0, q1 = divisor_class(nerve, delta_in)
        if q0 != 1 or not cohomologous(nerve, q1, delta_in):
            return "fail", {"divisor_case": name, "q0": str(q0)}
    return "pass", {"models": models, "divisor_cases": list(cases)}


def check_contraction_action(config):
    ranks = _ranks(config, lowest=1)
    for r in ranks:
        if not contraction_realization_check(r):
            return "fail", {"rank": r}
    return "pass", {"ranks": ranks}


def check_probe_required_domains(config):
    nerve = config.load_nerve()
    ext = build_extension(CoeffAlgebra.rationals(), 2)
    rng = _rng(config, "probe")
    lam, mu = _wedge_families(ext, nerve, rng)
    try:
        rep = conjecture_probe(ext, nerve, lam, mu, shape="wedge")
    except StructuralError as err:
        return "fail", {"domain": "wedge", "claim": str(err)}
    if rep["agrees"] is not True:
        return "fail", {"domain": "wedge", "entries": rep["entries"]}
    lam2, mu2 = _last_level_families(ext, nerve, rng)
    try:
        rep2 = conjecture_probe(ext, nerve, lam2, mu2, shape="last-level")
    except StructuralError as err:
        return "fail", {"domain": "last-level", "claim": str(err)}
    if rep2["agrees"] is not True:
        return "fail", {"domain": "last-level", "entries": rep2["entries"]}
    return "pass", {"domains": ["wedge", "last-level"]}


def probe_general_case(config):
    """Exploratory probe runs; never pass-required."""
    rng = _rng(config, "probe-general")
    nerve = sphere_nerve(2)
    ext = build_extension(CoeffAlgebra.rationals(), 3)
    lam = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(3)])
    mu = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(3)])
    rep = conjecture_probe(ext, nerve, lam, mu, shape=None)
    return "exploratory", {"nerve": "sphere2", "rank": 3, "report": rep}


SUITES = {
    "signs": [("sign-census", "exactly four twisted-contraction sign conventions per side", check_sign_census)],
    "koszul_duality": [("koszul-duality", "right duality intertwines the Hom dual of a Koszul complex", check_koszul_duality)],
    "dg_algebra": [("dg-battery", "shifted product: associativity, Leibniz, square-zero differential", check_dg_battery)],
    "ak": [("ak-battery", "P resolves the base, Q resolves the twisted top power, product is a chain map", check_ak_battery)],
    "hkr": [("hkr-maps", "comparison maps are quasi-isomorphisms and the two routes agree", check_hkr_maps)],
    "dual_signs": [("dual-signs", "dual comparison acts by the triangular-number signs", check_dual_signs)],
    "comparison_wedge": [
        ("comparison-wedge", "wedge-twist comparison matrix matches the recursion classes", check_comparison_wedge),
        ("probe-domains", "recursion probe agrees on its supported domains", check_probe_required_domains),
    ],
    "comparison_last_level": [
        ("comparison-last-level", "last-level twists give the single rescaled off-diagonal entry", check_comparison_last_level)
    ],
    "cycle_class": [("cycle-class", "split models give the unit class; divisors add their twisting class", check_cycle_class)],
    "contraction_action": [
        ("contraction-action", "the pairing product realizes left contraction after reduction", check_contraction_action)
    ],
    "conjecture": [("probe-general", "general-shape recursion probe (informational)", probe_general_case)],
}

SUITES["all"] = [c for checks in SUITES.values() for c in checks]


@dataclass
class Report:
    config: dict
    records: list = field(default_factory=list)

    @property
    def failed(self):
        return [r for r in self.records if r["status"] == "fail"]

    def to_json(self):
        payload = {
            "config": self.config,
            "checks": [
                {k: r[k] for k in ("id", "claim", "status", "detail")} for r in self.records
            ],
            "failures": len(self.failed),
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"

    def to_markdown(self):
        lines = ["# verification report", "", f"configuration: `{self.config}`", ""]
        lines.append("| check | status | time (s) | claim |")
        lines.append("|---|---|---|---|")
        for r in self.records:
            lines.append(f"| {r['id']} | {r['status']} | {r['elapsed']:.2f} | {r['claim']} |")
        lines.append("")
        for r in self.records:
            if r["status"] == "fail":
                lines.append(f"## witness: {r['id']}")
                lines.append("```json")
                lines.append(json.dumps(r["detail"], indent=2, default=str))
                lines.append("```")
        return "\n".join(lines) + "\n"


def run_suite(config):
    if config.suite not in SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}; choose from {sorted(SUITES)}")
    checks = SUITES[config.suite]
    config.load_nerve()  # a bad nerve is a config error, raised before any check runs
    records = []
    for check_id, claim, fn in checks:
        t0 = time.monotonic()
        try:
            status, detail = fn(config)
        except Exception as err:  # a crash is a failure with a witness
            import traceback  # only on a crash: importing it costs start-up time

            # file basenames, not paths: the report stays byte-identical across checkouts
            frames = traceback.extract_tb(err.__traceback__)[-3:]
            status, detail = "fail", {
                "exception": repr(err),
                "traceback": [f"{Path(f.filename).name}:{f.lineno} in {f.name}" for f in frames],
            }
        records.append({
            "id": check_id,
            "claim": claim,
            "status": status,
            "detail": detail,
            "elapsed": time.monotonic() - t0,
        })
    cfg = {k: getattr(config, k) for k in ("suite", "max_rank", "degree_bound", "nerve", "seed")}
    return Report(cfg, records)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="verify", description="run the exact-arithmetic verification suites"
    )
    parser.add_argument("--suite", default="all", help=f"one of {sorted(SUITES)}")
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--degree-bound", type=int, default=3)
    parser.add_argument("--nerve", default="circle", help="library name or JSON file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="", help="report output path")
    parser.add_argument("--format", dest="fmt", choices=("json", "md"), default="json")
    parser.add_argument("--config", default="", help="JSON config file (overrides flags)")
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = SuiteConfig.from_json(args.config)
        else:
            config = SuiteConfig(
                suite=args.suite,
                max_rank=args.max_rank,
                degree_bound=args.degree_bound,
                nerve=args.nerve,
                seed=args.seed,
                out=args.out,
                fmt=args.fmt,
            )
        report = run_suite(config)
    except ConfigError as err:
        parser.error(str(err))
    text = report.to_json() if config.fmt == "json" else report.to_markdown()
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)
    for r in report.records:
        line = f"[{r['status']:>11}] {r['id']} ({r['elapsed']:.2f}s)"
        print(line, file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
